"""Smoke test of the benchmark on its tiny corpus.

    python3 perfbench/smoke.py

Checks that every workload, traced and untraced, prints each metric
named in BENCHMARK.json with its unit and ends with a well-formed result
line; that a deliberately corrupted expected value is counted as a
`wrong` failure; and that the benchmark refuses to run, without printing
a result, when the library sources are missing.  Exits 0 when all hold.
"""
from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_outputs(spec: dict) -> None:
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            p = _run(ROOT, w["name"], trace)
            assert p.returncode == 0, (w["name"], trace, p.stderr[-2000:])
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["failed"] == 0, (w["name"], result)
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (w["name"], trace, set(got) ^ set(want))
            for name, unit in want.items():
                value = result["metrics"][name]["value"]
                assert isinstance(value, (int, float)), (name, value)
                assert any(line.startswith(f"{name} ") and line.split()[2] == unit
                           for line in lines[:-1]), (w["name"], name, unit)
            assert any(line.startswith("fail_rate ") for line in lines), w["name"]
            print(f"ok   {w['name']} --trace {trace}: {len(want)} metrics with units")


def check_corrupted_expected() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import run
    import workloads

    signal.signal(signal.SIGALRM, run._on_alarm)
    for name in ("decide", "exact"):
        workload = workloads.WORKLOADS[name]()
        corpus = workload.build(3, tiny=True)
        corpus[-1].expected += 1
        samples = [s for v in run.measure(workload, corpus, 0) for s in v]
        failures = run._failures(samples)
        assert failures == {"wrong": run.MIN_PASSES}, (name, failures)
        print(f"ok   {name}: corrupted expected value counted as "
              f"fail_rate {run.MIN_PASSES / len(samples):.3f} (wrong)")


def check_refuses_without_sources() -> None:
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=results) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        p = _run(Path(tmp), "local", 0)
        assert p.returncode != 0, p.stdout
        assert not p.stdout.strip(), p.stdout
    print("ok   refuses to run without the library sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_outputs(spec)
    check_corrupted_expected()
    check_refuses_without_sources()
    print("smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
