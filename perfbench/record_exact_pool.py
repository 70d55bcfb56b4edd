"""Record the reference values of the `exact` workload's instance pool.

    python3 perfbench/record_exact_pool.py

Runs the exact oracles on every pool instance and writes
perfbench/exact_pool.json.  The committed file was recorded from the
commit named in it; rerun this only to extend the pool, never to make a
changed library agree with itself.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from maxleaf import digraph, generators, oracles  # noqa: E402
from run import _git_commit  # noqa: E402

POOL_SEEDS = range(4)
# name, family, params, oracle, part of the smoke-test corpus
CLASSES = [
    ("ht6", "ht", [["t", 6]], "branch_and_bound", False),
    ("min3_n14", "random_strong_min_in3", [["n", 14]], "branch_and_bound", True),
    ("min3_n16", "random_strong_min_in3", [["n", 16]], "branch_and_bound", False),
    ("min3_n18", "random_strong_min_in3", [["n", 18]], "branch_and_bound", False),
    ("rs15_n12", "random_strong", [["n", 12], ["pct", 15]], "branch_and_bound", False),
    ("rs15_n14", "random_strong", [["n", 14], ["pct", 15]], "branch_and_bound", False),
    ("rs15_n16", "random_strong", [["n", 16], ["pct", 15]], "branch_and_bound", False),
    ("vs_rs15_n10", "random_strong", [["n", 10], ["pct", 15]], "vertex_separation", True),
    ("vs_rs15_n12", "random_strong", [["n", 12], ["pct", 15]], "vertex_separation", False),
    ("vs_rs15_n13", "random_strong", [["n", 13], ["pct", 15]], "vertex_separation", False),
    ("vs_rs15_n14", "random_strong", [["n", 14], ["pct", 15]], "vertex_separation", False),
    ("vs_rs15_n15", "random_strong", [["n", 15], ["pct", 15]], "vertex_separation", False),
]


def main() -> int:
    classes = []
    for name, family, params, oracle, tiny in CLASSES:
        seeds = [0] if family == "ht" else list(POOL_SEEDS)
        values = []
        for g in seeds:
            D = generators.generate(generators.InstanceSpec(
                family, tuple(tuple(p) for p in params), g))
            if oracle == "vertex_separation":
                value, _ = oracles.exact_vertex_separation(digraph.underlying_graph(D))
            else:
                value, _ = oracles.exact_max_leaf_branching(D, 600_000)
            values.append([g, value])
            print(name, g, value, file=sys.stderr)
        classes.append({"name": name, "family": family, "params": params,
                        "oracle": oracle, "tiny": tiny, "values": values})
    doc = {"recorded_at": _git_commit(), "classes": classes}
    (HERE / "exact_pool.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
