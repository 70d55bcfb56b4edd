"""Golden outputs of the decomposition constructions.

``tests/data/golden_decompositions.json`` holds one entry for every
decomposition that acceptance criteria 3 and 4 build (criterion 4 includes
the extremal family H_6..H_8): the instance id, k, the SHA-256 of
``PathDecomposition.to_json()``, the width, the layer count and the
diagnostics.  The entries were recorded from the original quadratic
implementation, so this test pins the near-linear one to it bag for bag.

Regenerate (only when a change of output is intended) with::

    PYTHONPATH=src python3 tests/test_golden_decompositions.py
"""
import hashlib
import json
import random
from pathlib import Path

from maxleaf.branching import leaf_count
from maxleaf.decomposition import decompose_acyclic, decompose_strong
from maxleaf.digraph import Digraph, has_out_branching
from maxleaf.generators import gen_ht, gen_random_strong
from maxleaf.local_search import bfs_branching, improve_to_1ae

GOLDEN = Path(__file__).parent / "data" / "golden_decompositions.json"


def criterion3_dag(seed):
    """The single-source DAG that acceptance criterion 3 draws for seed."""
    rng = random.Random(seed)
    n = rng.randint(4, 18)
    arcs = {(u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < 0.25}
    for v in range(1, n):
        if not any(b == v for _, b in arcs):
            arcs.add((rng.randint(0, v - 1), v))
    return Digraph.build(n, arcs)


def criterion4_digraph(idx):
    """Instance idx of acceptance criterion 4 (100 random, then H_6..H_8)."""
    if idx < 100:
        return gen_random_strong(10 + (idx * 190) // 99, seed=idx,
                                 pct=10 if idx % 2 else 20)
    return gen_ht(idx - 94)


def build(entry_id, k):
    kind, num = entry_id.split("/")[:2]
    if kind == "c3":
        return decompose_acyclic(criterion3_dag(int(num)), k)
    return decompose_strong(criterion4_digraph(int(num)), k)


def summarize(out):
    pd = out.decomposition
    return {"sha256": hashlib.sha256(pd.to_json().encode()).hexdigest(),
            "width": pd.width, "layers": out.layers,
            "diagnostics": list(out.diagnostics)}


def record():
    """Every (instance, k) of criteria 3 and 4, with today's outputs."""
    from maxleaf.oracles import exact_max_leaf_branching

    entries = []
    confirmed, seed = 0, 0
    while confirmed < 100 and seed < 3000:
        D = criterion3_dag(seed)
        ls, _ = exact_max_leaf_branching(D, 10_000)
        for k in (2, 3, 4):
            if ls < k:
                confirmed += 1
                entries.append({"id": f"c3/{seed}/n{D.n}", "k": k})
        seed += 1
    for idx in range(103):
        D = criterion4_digraph(idx)
        _, roots = has_out_branching(D)
        k = leaf_count(improve_to_1ae(D, bfs_branching(D, min(roots)))) + 1
        entries.append({"id": f"c4/{idx}/n{D.n}", "k": k})
    for e in entries:
        e.update(summarize(build(e["id"], e["k"])))
    return entries


def test_decompositions_match_golden():
    entries = json.loads(GOLDEN.read_text())
    assert len(entries) >= 203
    for e in entries:
        got = summarize(build(e["id"], e["k"]))
        want = {key: e[key] for key in got}
        assert got == want, e["id"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(e) for e in record()) + "\n]\n")
