"""The four benchmark workloads: corpus construction, the timed call
sequence for one instance, and the correctness check of its output.

Every call into the library goes through a module attribute
(``digraph.parse``, ``local_search.best_of_restarts``, ...), never through
a name bound at import time, so the tracer in ``tracer.py`` sees it.

A corpus is a fixed number of rounds, one after the other.  A round
holds one instance of every size class of the workload, so every corpus
has the same mix of instance sizes.  The classes of a workload are
chosen so that its median and tail percentiles fall inside a class, or
between two classes of similar cost, never in a gap between a cheap and
an expensive class, where a percentile would jump from seed to seed,
and so that one pass over the corpus takes about 2.5 s on a 2-vCPU
Xeon at its best speed.
"""
from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from maxleaf import branching, decomposition, digraph, fpt, generators, local_search, oracles

EXACT_POOL_FILE = Path(__file__).with_name("exact_pool.json")
GOLDEN_H6_LEAVES = 19
EXACT_BUDGET_MS = 60_000.0
GOLDEN_DEADLINE_S = 30.0


@dataclass
class Instance:
    id: str
    payload: Any
    expected: Any = None
    extra: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one timed call sequence returned, reduced to what the check
    and the quality means need."""

    value: Any
    leaves: Optional[float] = None
    width: Optional[float] = None


@dataclass
class AfterRun:
    """An instance run once after the measurement, outside the metrics.
    When it shows a known defect, a budget or memory stop is that defect
    and is reported on its own, not as a failure."""

    inst: Instance
    deadline_s: float
    known_defect: Optional[str] = None


class CheckFailed(Exception):
    """An output failed its correctness check; `reason` is `wrong` or
    `invalid`."""

    def __init__(self, reason: str, detail: str):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


def _require(cond: bool, reason: str, detail: str) -> None:
    if not cond:
        raise CheckFailed(reason, detail)


def _gen(family: str, seed: int, **params: int):
    spec = generators.InstanceSpec(family, tuple(params.items()), seed)
    return generators.generate(spec)


def _seed_stream(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _local_search_leaves(D) -> int:
    """Leaves of the branching that decompose_strong / decompose_acyclic
    start from; k is set one above it so a decomposition is returned."""
    _, roots = digraph.has_out_branching(D)
    T = local_search.improve_to_1ae(D, local_search.bfs_branching(D, min(roots)))
    return branching.leaf_count(T)


def _check_out_tree(D, tree, k: int) -> None:
    """An out-tree of D (not necessarily spanning) with at least k leaves."""
    _require(tree is not None, "invalid", "yes without a witness")
    verts = set(tree.vertices)
    _require(tree.root in verts, "invalid", "root outside the vertex set")
    for v, p in tree.parent.items():
        _require(v in verts and p in verts and v != tree.root, "invalid",
                 f"parent entry {p}->{v} outside the tree")
        _require((p, v) in D.arcs, "invalid", f"tree arc {p}->{v} not in host")
    _require(set(tree.parent) == verts - {tree.root}, "invalid",
             "a non-root vertex has no parent")
    for v in verts:  # every vertex reaches the root through parents
        seen = set()
        while v != tree.root:
            _require(v not in seen, "invalid", "cycle in out-tree")
            seen.add(v)
            v = tree.parent[v]
    _require(tree.leaf_count() >= k, "wrong",
             f"witness has {tree.leaf_count()} < {k} leaves")


class Workload:
    name = ""
    # rounds in the corpus
    rounds = 1
    # fixed tail percentile, chosen so the seed code leaves at least ten
    # samples beyond it in one run
    tail_pct = 90
    # which quality means the workload prints besides the metrics
    quality: tuple[str, ...] = ()
    # instances, from the start of the corpus, that the traced run repeats
    trace_instances = 10

    def build(self, seed: int, tiny: bool = False) -> list[Instance]:
        rng = _seed_stream(self.name, seed)
        return [inst for _ in range(1 if tiny else self.rounds)
                for inst in self.round(rng, tiny)]

    def round(self, rng: random.Random, tiny: bool) -> list[Instance]:
        raise NotImplementedError

    def run(self, inst: Instance) -> Outcome:
        raise NotImplementedError

    def check(self, inst: Instance, out: Outcome) -> None:
        raise NotImplementedError

    def after_runs(self, seed: int) -> list[AfterRun]:
        return []


class LocalWorkload(Workload):
    """The CLI path `solve --local` then `check --1ae`."""

    name = "local"
    rounds = 8
    tail_pct = 80
    trace_instances = 7
    quality = ("leaves_mean",)
    # (family, n, pct); pct None means the family has no density knob.
    # In rising cost (about 11, 21, 24, 60, 86, 86 and 89 ms on a 2-vCPU
    # Xeon): the median lies in the fourth class, p80 among the last three.
    classes = [("random_strong_min_in3", 20, None),
               ("random_strong", 30, 3),
               ("random_strong", 20, 20),
               ("random_strong_min_in3", 40, None),
               ("random_strong", 30, 20),
               ("random_strong", 50, 3),
               ("random_strong", 40, 10)]
    tiny_classes = [("random_strong_min_in3", 12, None), ("random_strong", 10, 20)]

    def round(self, rng, tiny):
        out = []
        for family, n, pct in (self.tiny_classes if tiny else self.classes):
            g = rng.randrange(1 << 30)
            params = {"n": n} if pct is None else {"n": n, "pct": pct}
            D = _gen(family, g, **params)
            out.append(Instance(f"{family}/n{n}/p{pct}/g{g}", digraph.serialize(D),
                                extra={"restart_seed": g % 1000}))
        return out

    def run(self, inst):
        D = digraph.parse(inst.payload)
        ok, roots = digraph.has_out_branching(D)
        if not ok:
            return Outcome((D, None, None))
        T = local_search.best_of_restarts(D, roots, 2, inst.extra["restart_seed"])
        cert = local_search.is_1ae_optimal(D, T)
        return Outcome((D, T, cert), leaves=branching.leaf_count(T))

    def check(self, inst, out):
        D, T, cert = out.value
        _require(T is not None, "wrong", "strong digraph reported without out-branching")
        err = branching.validate(D, T)
        _require(err is None, "invalid", f"branching: {err}")
        _require(cert.status == "optimal", "wrong",
                 f"restart result certified {cert.status}")


class DecomposeWorkload(Workload):
    """decompose_strong on random strong digraphs and the H_t family, and
    decompose_acyclic on single-source DAGs, with k one above the
    local-search leaf count so a decomposition is always returned."""

    name = "decompose"
    rounds = 8
    tail_pct = 86
    trace_instances = 11
    quality = ("width_mean",)
    # 11 classes in rising cost (about 1, 5, 8, 12, 13, 21, 27, 28, 42, 54
    # and 83 ms): the median is the 6th class, p86 the 10th.
    classes = [("random_dag_single_source", 30, None), ("ht", 6, None),
               ("ht", 7, None), ("ht", 8, None),
               ("random_dag_single_source", 100, None), ("random_strong", 30, 20),
               ("random_strong", 40, 10), ("random_dag_single_source", 150, None),
               ("random_dag_single_source", 200, None), ("random_strong", 40, 20),
               ("random_strong", 50, 10)]
    tiny_classes = [("random_strong", 12, 20), ("ht", 6, None),
                    ("random_dag_single_source", 12, None)]

    def round(self, rng, tiny):
        out = []
        for family, n, pct in (self.tiny_classes if tiny else self.classes):
            if family == "ht":
                g, D = 0, _gen("ht", 0, t=n)
            else:
                g = rng.randrange(1 << 30)
                params = {"n": n} if pct is None else {"n": n, "pct": pct}
                D = _gen(family, g, **params)
            mode = "acyclic" if family == "random_dag_single_source" else "strong"
            k = _local_search_leaves(D) + 1
            out.append(Instance(f"{family}/n{n}/p{pct}/g{g}", (D, k, mode)))
        return out

    def run(self, inst):
        D, k, mode = inst.payload
        if mode == "acyclic":
            res = decomposition.decompose_acyclic(D, k)
        else:
            res = decomposition.decompose_strong(D, k)
        pd = res.decomposition
        return Outcome(res, width=pd.width if pd is not None else None)

    def check(self, inst, out):
        D, k, mode = inst.payload
        res = out.value
        _require(not res.diagnostics, "wrong", f"diagnostics {list(res.diagnostics)}")
        if res.witness is not None:
            err = branching.validate(D, res.witness)
            _require(err is None, "invalid", f"witness: {err}")
            _require(branching.leaf_count(res.witness) >= k, "wrong",
                     "witness below k leaves")
            return
        pd = res.decomposition
        _require(pd is not None, "invalid", "neither witness nor decomposition")
        err = decomposition.validate_pd(digraph.underlying_graph(D), pd)
        _require(err is None, "invalid", f"decomposition: {err}")
        if mode == "acyclic":
            _require(pd.width <= 4 * k - 6, "wrong",
                     f"width {pd.width} > 4k-6 = {4 * k - 6}")
        else:
            t = res.layers
            _require(pd.width <= 2 * (t + 1.5) * k, "wrong",
                     f"width {pd.width} > 2(t+1.5)k, t={t}, k={k}")
            _require(t <= decomposition.layer_bound(k), "wrong",
                     f"layers {t} > layer_bound({k})")


class DecideWorkload(Workload):
    """decide_k_dmlot at the optimum and one above it on small random
    digraphs, and decide_k_dmlob one above the optimum on small strong
    digraphs.  The optimum comes from the exact oracles in set-up.

    The DP's cost grows exponentially with the decomposition width, so
    instances are stratified to keep a run's cost independent of the
    seed: the out-tree instances have a fixed order and arc count (the
    criterion-8 digraphs, order 5-9 at arc probability 0.24, vary from
    1 ms to over 20 s), and the strong instances a fixed width.  Even so
    the mean cost of an out-tree class moved by up to 70% from seed to
    seed, with the few instances that send many reachable subdigraphs to
    the DP, so the strong instances, whose class mean moved by 15%, are
    three in four."""

    name = "decide"
    rounds = 50
    tail_pct = 80
    trace_instances = 40
    quality = ("width_mean",)
    dmlot_classes = [(6, 8)]  # (n, m)
    # width of decompose_strong at k = optimum + 1, n = 8; width-5
    # instances cost 5 to 175 ms, so a few of them decided a run's mean
    dmlob_widths = (4, 4, 4)
    # the instance of ROADMAP item 3: the DP on its width-15 decomposition
    # runs out of time or memory
    probe_spec = (16, 5, 15, 13)  # n, generator seed, pct, k
    probe_deadline_s = 3.0

    def round(self, rng, tiny):
        out = []
        for n, m in ([(5, 6), (6, 8)] if tiny else self.dmlot_classes):
            g = rng.randrange(1 << 30)
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            D = digraph.Digraph.build(n, random.Random(g).sample(pairs, m))
            ell = oracles.exact_max_leaf_tree(D, EXACT_BUDGET_MS)
            out.append(Instance(f"dmlot/n{n}/m{m}/g{g}", ("dmlot", D), expected=ell))
        for w in ((4,) if tiny else self.dmlob_widths):
            while True:
                g = rng.randrange(1 << 30)
                D = _gen("random_strong", g, n=8, pct=15)
                ell, _ = oracles.exact_max_leaf_branching(D, EXACT_BUDGET_MS)
                pd = decomposition.decompose_strong(D, ell + 1).decomposition
                if pd is not None and pd.width == w:
                    break
            out.append(Instance(f"dmlob/n8/w{w}/g{g}", ("dmlob", D), expected=ell))
        return out

    def after_runs(self, seed):
        n, g, pct, k = self.probe_spec
        D = _gen("random_strong", g, n=n, pct=pct)
        ell, _ = oracles.exact_max_leaf_branching(D, EXACT_BUDGET_MS)
        inst = Instance(f"probe/random_strong/n{n}/p{pct}/g{g}/k{k}", ("dmlob", D),
                        expected=ell, extra={"k": k})
        return [AfterRun(inst, self.probe_deadline_s,
                         "the DP's state space on a width-15 decomposition (ROADMAP item 3)")]

    def run(self, inst):
        kind, D = inst.payload
        if kind == "dmlot":
            ell = inst.expected
            return Outcome((fpt.decide_k_dmlot(D, ell), fpt.decide_k_dmlot(D, ell + 1)))
        k = inst.extra.get("k", inst.expected + 1)
        dec = fpt.decide_k_dmlob(D, k)
        return Outcome((dec,), leaves=dec.leaves, width=dec.width)

    def check(self, inst, out):
        kind, D = inst.payload
        ell = inst.expected
        if kind == "dmlot":
            at, above = out.value
            if ell >= 1:
                _require(at.answer == "yes", "wrong",
                         f"dmlot(k={ell}) answered {at.answer}, oracle optimum {ell}")
                _check_out_tree(D, at.witness, ell)
            _require(above.answer == "no", "wrong",
                     f"dmlot(k={ell + 1}) answered {above.answer}, oracle optimum {ell}")
            return
        (dec,) = out.value
        k = inst.extra.get("k", ell + 1)
        want = "yes" if ell >= k else "no"
        _require(dec.answer == want, "wrong",
                 f"dmlob(k={k}) answered {dec.answer}, oracle optimum {ell}")
        if dec.answer == "yes":
            err = branching.validate(D, dec.witness)
            _require(err is None, "invalid", f"witness: {err}")
            _require(branching.leaf_count(dec.witness) >= k, "wrong",
                     "witness below k leaves")
        else:
            _require(dec.leaves == ell, "wrong",
                     f"dmlob best {dec.leaves} differs from oracle optimum {ell}")


class ExactWorkload(Workload):
    """Branch and bound on small random strong digraphs, and the exact
    vertex separation DP.  Instances come from a fixed pool whose values
    were recorded from the seed commit (exact_pool.json).  Branch and
    bound costs differ tenfold between instances of one size, so the
    corpus is the whole pool, in an order the seed picks.  H_6, whose
    branch and bound alone takes about as long as a pass over the pool,
    runs once after the measurement and is checked against its golden
    value."""

    name = "exact"
    tail_pct = 75
    trace_instances = 20

    @functools.cached_property
    def pool(self) -> dict:
        return json.loads(EXACT_POOL_FILE.read_text())

    def build(self, seed, tiny=False):
        rng = _seed_stream(self.name, seed)
        corpus = [self._instance(c, g, value) for c in self.pool["classes"]
                  if c["family"] != "ht" and (c["tiny"] or not tiny)
                  for g, value in c["values"]]
        rng.shuffle(corpus)
        return corpus

    def after_runs(self, seed):
        return [AfterRun(self._instance(c, g, value), GOLDEN_DEADLINE_S)
                for c in self.pool["classes"] if c["family"] == "ht"
                for g, value in c["values"]]

    @staticmethod
    def _instance(c: dict, g: int, value: int) -> Instance:
        params = dict(c["params"])
        D = _gen(c["family"], g, **params)
        ps = "/".join(f"{k}{v}" for k, v in c["params"])
        if c["oracle"] == "vertex_separation":
            return Instance(f"vs/{c['family']}/{ps}/g{g}",
                            ("vs", digraph.underlying_graph(D)), expected=value)
        if c["family"] == "ht" and params["t"] == 6 and value != GOLDEN_H6_LEAVES:
            raise ValueError(f"exact_pool.json records {value} for H_6, golden is "
                             f"{GOLDEN_H6_LEAVES}")
        return Instance(f"bnb/{c['family']}/{ps}/g{g}", ("bnb", D), expected=value)

    def run(self, inst):
        kind, X = inst.payload
        if kind == "vs":
            value, order = oracles.exact_vertex_separation(X)
            return Outcome((value, order), width=value)
        value, T = oracles.exact_max_leaf_branching(X, EXACT_BUDGET_MS)
        return Outcome((value, T), leaves=value)

    def check(self, inst, out):
        kind, X = inst.payload
        value, w = out.value
        _require(value == inst.expected, "wrong",
                 f"oracle value {value}, recorded {inst.expected}")
        if kind == "vs":
            _require(sorted(w.order) == list(range(X.n)), "invalid",
                     "ordering is not a permutation")
            pd = decomposition.ordering_to_decomposition(X, w)
            _require(decomposition.validate_pd(X, pd) is None and pd.width == value,
                     "invalid", "ordering does not decompose at the recorded width")
            return
        _require(w is not None and branching.validate(X, w) is None, "invalid",
                 "witness does not validate")
        _require(branching.leaf_count(w) == value, "invalid",
                 f"witness has {branching.leaf_count(w)} leaves, value {value}")


WORKLOADS: dict[str, Callable[[], Workload]] = {
    "local": LocalWorkload,
    "decompose": DecomposeWorkload,
    "decide": DecideWorkload,
    "exact": ExactWorkload,
}
