"""maxleaf benchmark: one seeded workload in a closed loop.

    python3 perfbench/run.py --workload local --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One client in this one process sends the next instance only after the
previous one finished.  The loop runs passes over the workload's fixed
corpus (see workloads.py) for about --seconds (see measure), checks
every output outside the timed region, prints each metric as
``<name> <value> <unit>`` and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics.  --trace 1 measures the same
way, then runs the first instances of the corpus once more with every
public library function wrapped in a span (tracer.py) and reports the
per-layer metrics and the tracing overhead.  Results, the run
environment and (with --trace 1) the spans go to perfbench/results/.

Each instance runs under a SIGALRM deadline, and the process runs under
an address-space cap, so a runaway instance is counted as a `budget` or
`memory` failure and the run goes on.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 3
INSTANCE_DEADLINE_S = 30.0
ADDRESS_SPACE_CAP = 1 << 30
END_TO_END_UNITS = {
    "throughput_ips": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cpu_per_instance_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


class Deadline(Exception):
    """The per-instance alarm fired."""


def _on_alarm(signum, frame):
    raise Deadline()


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """SHA-256 over the library sources, which names the code measured
    also where the checkout is not a git repository."""
    h = hashlib.sha256()
    for f in sorted((SRC / "maxleaf").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _reference_loop_ms() -> float:
    """Least time of a fixed pure-Python loop over 20 tries: it rises when
    other load on the machine slows this process, which the load average
    of a virtual machine does not show."""
    best = float("inf")
    for _ in range(20):
        t0 = time.perf_counter()
        sum(i * i % 7 for i in range(100_000))
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def percentile(sorted_xs: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_xs)
    idx = max(0, -(-n * pct // 100) - 1)
    idx = min(int(idx), n - 1)
    return sorted_xs[idx], n - idx - 1


def _upper_quartile(xs: list[float]) -> float:
    return percentile(sorted(xs), 75)[0]


@dataclass
class Sample:
    """One timed instance: wall and CPU seconds, and the failure reason
    (None when the output passed its check)."""

    id: str
    pass_no: int
    wall: float
    cpu: float
    reason: Optional[str]
    detail: str
    leaves: Optional[float]
    width: Optional[float]


def run_instance(workload, inst, pass_no=0, deadline_s=INSTANCE_DEADLINE_S, tracer=None):
    """Time one instance, then check its output; never raises.  A tracer
    is installed around the timed calls only, not around the check."""
    from maxleaf.oracles import BudgetExhausted
    from workloads import CheckFailed

    out, reason, detail = None, None, ""
    if tracer is not None:
        tracer.instance = inst.id
        tracer.install()
    c0 = time.process_time()
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    try:
        try:
            out = workload.run(inst)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = time.perf_counter()
            c1 = time.process_time()
            if tracer is not None:
                tracer.remove()
    except (Deadline, BudgetExhausted) as e:
        reason, detail = "budget", type(e).__name__
    except MemoryError:
        reason, detail = "memory", "MemoryError"
    except Exception:
        reason, detail = "error", traceback.format_exc(limit=3)
    if out is not None:
        try:
            workload.check(inst, out)
        except CheckFailed as e:
            reason, detail = e.reason, e.detail
        except Exception:
            reason, detail = "error", "check raised: " + traceback.format_exc(limit=3)
    return Sample(inst.id, pass_no, t1 - t0, c1 - c0, reason, detail,
                  out.leaves if out is not None else None,
                  out.width if out is not None else None)


def measure(workload, corpus, seconds: float) -> list[list[Sample]]:
    """Run the corpus in passes, each in the same order: at least
    MIN_PASSES, and more while the next is expected, at the mean pass
    time so far, to end within `seconds`.  The runs of one instance thus
    lie a pass apart, spread over the whole measurement.  The result
    holds, per instance, one sample per pass."""
    visits: list[list[Sample]] = [[] for _ in corpus]
    start = time.perf_counter()
    p = 0
    while p < MIN_PASSES or (time.perf_counter() - start) * (p + 1) / p <= seconds:
        for visit, inst in zip(visits, corpus):
            visit.append(run_instance(workload, inst, p))
        p += 1
    return visits


def trace(workload, corpus) -> tuple[list[Sample], float, "Tracer"]:
    """Run the first instances of the corpus traced, each next to an
    untraced run of the same instance, alternating which goes first, so
    that the overhead compares runs made under the same conditions."""
    from tracer import Tracer

    tracer = Tracer()
    insts = corpus[:workload.trace_instances]
    traced, base = [], 0.0
    for k, inst in enumerate(insts):
        if k % 2:
            traced.append(run_instance(workload, inst, tracer=tracer))
        base += run_instance(workload, inst).wall
        if not k % 2:
            traced.append(run_instance(workload, inst, tracer=tracer))
    overhead_pct = (sum(s.wall for s in traced) / base - 1) * 100
    return traced, overhead_pct, tracer


def end_to_end(visits: list[list[Sample]], tail_pct: float, setup_s: float,
               peak_rss_mb: float) -> tuple[dict[str, float], int]:
    """The metrics, and the number of samples beyond the tail percentile.

    An instance's wall and CPU time are the upper quartiles of its runs,
    one per pass: the time within which three runs in four finished.  The
    host this was tuned on runs the process at its best speed or up to
    1.8 times slower, in stretches of seconds to minutes.  The upper
    quartile follows the slower speed whenever that held for a quarter of
    the run, as it did in most runs; the least and the median flipped
    between the two speeds from run to run (see README.md)."""
    walls = sorted(_upper_quartile([s.wall for s in v]) for v in visits)
    cpus = [_upper_quartile([s.cpu for s in v]) for v in visits]
    tail, beyond = percentile(walls, tail_pct)
    return {
        "throughput_ips": len(walls) / sum(walls),
        "latency_p50_ms": statistics.median(walls) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "cpu_per_instance_ms": sum(cpus) / len(cpus) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }, beyond


def _mean_of(samples: list[Sample], attr: str) -> float | None:
    xs = [getattr(s, attr) for s in samples if getattr(s, attr) is not None]
    return sum(xs) / len(xs) if xs else None


def _failures(samples: list[Sample]) -> dict[str, int]:
    out: dict[str, int] = {}
    for s in samples:
        if s.reason is not None:
            out[s.reason] = out.get(s.reason, 0) + 1
    return out


def _print_metric(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name} {value} {unit}" + (f"  ({note})" if note else ""))


def run_all(args: argparse.Namespace, names: list[str]) -> int:
    """`--workload all`: every workload in a process of its own, one after
    the other; the exit code is the first non-zero one."""
    code = 0
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = code or subprocess.run(cmd + ["--tiny"] * args.tiny).returncode
    return code


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one round of the smallest instances (smoke test)")
    args = ap.parse_args(argv)

    if not (SRC / "maxleaf" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    env = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_start": _loadavg(),
        "reference_loop_ms_start": _reference_loop_ms(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    signal.signal(signal.SIGALRM, _on_alarm)

    t_import = time.perf_counter()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import maxleaf  # noqa: F401
    import workloads
    from tracer import Tracer
    import_s = time.perf_counter() - t_import
    if Path(maxleaf.__file__).resolve().parent != (SRC / "maxleaf").resolve():
        print(f"error: imported maxleaf from {maxleaf.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()

    # set-up: corpus generation and reference values, once before the
    # measurement and once after it, so that set-up, like the instances'
    # runs, sees more than one moment of the host; with --trace 1 one more
    # build runs traced, for the generators layer
    def timed_build() -> tuple[list, float]:
        t0 = time.perf_counter()
        corpus = workload.build(args.seed, args.tiny)
        return corpus, time.perf_counter() - t0

    corpus, build_s = timed_build()
    if args.trace:
        setup_tracer = Tracer()
        setup_tracer.instance = "setup"
        with setup_tracer:
            workload.build(args.seed, args.tiny)
    # the corpus lives through the whole run: keep the collector from
    # walking it again and again inside the timed calls
    gc.collect()
    gc.freeze()

    visits = measure(workload, corpus, args.seconds)
    samples = [s for v in visits for s in v]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    traced: list[Sample] = []
    if args.trace:
        traced, overhead_pct, tracer = trace(workload, corpus)

    after = [(a, run_instance(workload, a.inst, deadline_s=a.deadline_s))
             for a in workload.after_runs(args.seed)]
    setup_s = import_s + max(build_s, timed_build()[1])
    metrics, beyond = end_to_end(visits, workload.tail_pct, setup_s, peak_rss_mb)
    env["loadavg_end"] = _loadavg()
    env["reference_loop_ms_end"] = _reference_loop_ms()

    # report; a budget or memory stop of an after-run that shows a known
    # defect is that defect, reported on its own line and not as a failure
    known_stops = {id(s) for a, s in after
                   if a.known_defect and s.reason in ("budget", "memory")}
    outcomes = samples + traced + [s for _, s in after if id(s) not in known_stops]
    failures = _failures(outcomes)
    attempted, failed = len(outcomes), sum(failures.values())
    n_passes = len(visits[0])
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: {len(visits)} instances, {n_passes} passes; "
          "closed loop, 1 client")
    notes = {"latency_tail_ms": f"p{workload.tail_pct}, {len(visits)} samples, "
                                f"{beyond} beyond it",
             "setup_s": f"imports {import_s:.4f} s + the slower of 2 corpus builds"}
    for name, unit in END_TO_END_UNITS.items():
        _print_metric(name, metrics[name], unit, notes.get(name, ""))
    _print_metric("fail_rate", failed / attempted, "ratio",
                  f"{failed} of {attempted}; by reason {json.dumps(failures, sort_keys=True)}")
    for q in workload.quality:
        _print_metric(q, _mean_of([v[0] for v in visits], q.split("_")[0]), q.split("_")[0])
    for a, s in after:
        print(f"after-run {s.id}: {s.reason or 'ok'} after {s.wall:.3f} s"
              + (f"; shows {a.known_defect}" if a.known_defect else ""))
    if any(a.known_defect for a, _ in after):
        _print_metric("known_defect_stops", len(known_stops), "count")
    for s in outcomes:
        if s.reason is not None:
            print(f"failure {s.reason} {s.id}: {s.detail.strip()}", file=sys.stderr)

    if args.trace:
        layer = tracer.layer_metrics()
        layer.update((k, v) for k, v in setup_tracer.layer_metrics().items()
                     if k.startswith("generators."))
        layer["trace.overhead_pct"] = (overhead_pct, "%")
        for name, (value, unit) in layer.items():
            _print_metric(name, value, unit)
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        result_metrics = {k: {"value": metrics[k], "unit": u}
                          for k, u in END_TO_END_UNITS.items()}

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "end_to_end": metrics, "metrics": result_metrics,
              "failures": failures, "tail_pct": workload.tail_pct,
              "after_runs": [asdict(s) for _, s in after],
              "samples": [asdict(s) for s in samples + traced]}
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        with open(results_dir / f"{stem}-spans.jsonl", "w", encoding="utf-8") as f:
            for span in tracer.span_records():
                f.write(json.dumps(span) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
