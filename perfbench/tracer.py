"""Span tracing around the library's public functions, installed at run
time and removed afterwards; no library source is edited.

Each traced function is replaced at every module attribute that holds
it, so a call from one module into another (``maxleaf.fpt`` calling
``decompose_strong``, ``maxleaf.decomposition`` calling ``tighten``)
goes through the wrapper.  A span is (name, start, end, parent span
index, instance id); spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional

from maxleaf import branching

# <module>.<function> of every traced public function
TRACED = (
    "digraph.parse",
    "digraph.has_out_branching",
    "branching.classify",
    "local_search.best_of_restarts",
    "local_search.is_1ae_optimal",
    "local_search.improve_to_1ae",
    "decomposition.tighten",
    "decomposition.build_beta_tree",
    "decomposition.decompose_strong",
    "decomposition.decompose_acyclic",
    "decomposition.validate_pd",
    "fpt.decide_k_dmlob",
    "fpt.decide_k_dmlot",
    "fpt.dp_max_leaf_run",
    "oracles.exact_max_leaf_branching",
    "oracles.exact_vertex_separation",
    "generators.generate",
)
DECISIONS = ("fpt.decide_k_dmlob", "fpt.decide_k_dmlot")


def _library_modules() -> list[Any]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "maxleaf" or name.startswith("maxleaf."))]


class Tracer:
    """Collects spans and layer counters while installed."""

    def __init__(self) -> None:
        self.spans: list[Optional[tuple]] = []
        self.instance: Optional[str] = None
        self.errors: Counter = Counter()
        self.moves = 0
        self.restart_leaves: list[int] = []
        self.widths: list[int] = []
        self.layers: list[int] = []
        self.states_peaks: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Callable]] = []
        self._hooks = {
            "local_search.improve_to_1ae": self._on_improve,
            "local_search.best_of_restarts": self._on_restarts,
            "decomposition.decompose_strong": self._on_decompose,
            "decomposition.decompose_acyclic": self._on_decompose,
            "fpt.dp_max_leaf_run": self._on_dp_run,
        }

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = _library_modules()
        by_name = {m.__name__: m for m in modules}
        for qual in TRACED:
            mod, fn = qual.split(".")
            original = getattr(by_name[f"maxleaf.{mod}"], fn)
            wrapper = self._wrap(qual, original)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is original:
                        self._patches.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def remove(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _wrap(self, name: str, f: Callable) -> Callable:
        hook = self._hooks.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(f)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = f(*args, **kwargs)
            except BaseException as e:
                self.errors[(name, type(e).__name__)] += 1
                raise
            finally:
                spans[idx] = (name, t0, clock(), parent, self.instance)
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # -- counters recorded at the layer boundaries -----------------------

    def _on_improve(self, args, T) -> None:
        # each improving 1-exchange gains exactly one leaf
        self.moves += branching.leaf_count(T) - branching.leaf_count(args[1])

    def _on_restarts(self, args, T) -> None:
        self.restart_leaves.append(branching.leaf_count(T))

    def _on_decompose(self, args, outcome) -> None:
        if outcome.decomposition is not None:
            self.widths.append(outcome.decomposition.width)
            self.layers.append(outcome.layers)

    def _on_dp_run(self, args, run) -> None:
        self.states_peaks.append(run.states_peak)

    # -- aggregation ------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        spans = [s for s in self.spans if s is not None]
        calls: Counter = Counter()
        total = defaultdict(float)
        child = defaultdict(float)
        for name, t0, t1, parent, _ in spans:
            calls[name] += 1
            total[name] += t1 - t0
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
        self_time = defaultdict(float)
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            self_time[name] += (t1 - t0) - child[i]
        decisions = 0
        for name, _, _, parent, _ in spans:
            if name in DECISIONS and not self._has_ancestor(spans, parent, DECISIONS):
                decisions += 1

        out: dict[str, tuple[float, str]] = {}
        for qual in TRACED:
            out[f"{qual}.calls"] = (calls[qual], "count")
            out[f"{qual}.ms"] = (total[qual] * 1e3, "ms")
            out[f"{qual}.self_ms"] = (self_time[qual] * 1e3, "ms")
        out["local_search.moves"] = (self.moves, "count")
        out["local_search.leaves_mean"] = (_mean(self.restart_leaves), "leaves")
        out["decomposition.width_mean"] = (_mean(self.widths), "count")
        out["decomposition.layers_mean"] = (_mean(self.layers), "count")
        out["fpt.dp_runs_per_decision"] = (
            calls["fpt.dp_max_leaf_run"] / decisions if decisions else 0.0, "runs/decision")
        out["fpt.states_peak_max"] = (max(self.states_peaks, default=0), "count")
        out["fpt.states_peak_sum"] = (sum(self.states_peaks), "count")
        out["oracles.budget_exhausted"] = (
            self.errors[("oracles.exact_max_leaf_branching", "BudgetExhausted")], "count")
        out["trace.spans"] = (len(spans), "count")
        return out

    @staticmethod
    def _has_ancestor(spans: list[tuple], idx: int, names: tuple[str, ...]) -> bool:
        while idx >= 0:
            if spans[idx][0] in names:
                return True
            idx = spans[idx][3]
        return False

    def span_records(self) -> list[list]:
        return [list(s) for s in self.spans if s is not None]


def _mean(xs: list) -> float:
    return sum(xs) / len(xs) if xs else 0.0
