"""Acceptance suite: one test per criterion, exact tolerances.

Each test prints a single summary line; the pytest verdict for the test
is the criterion's pass/fail line.
"""
import math
import random

from maxleaf.branching import leaf_count, validate
from maxleaf.decomposition import (
    decompose_acyclic,
    decompose_strong,
    layer_bound,
    ordering_to_decomposition,
    validate_pd,
)
from maxleaf.digraph import Digraph, Graph, has_out_branching, underlying_graph
from maxleaf.fpt import decide_k_dmlot, dp_max_leaf_run
from maxleaf.generators import InstanceSpec, gen_ht, gen_random_strong, generate
from maxleaf.harness import cube_root_bound, verify_bound_theorem2
from maxleaf.local_search import (
    bfs_branching,
    check_structural_conditions,
    improve_to_1ae,
    is_1ae_optimal,
)
from maxleaf.oracles import (
    exact_max_leaf_branching,
    exact_max_leaf_tree,
    exact_vertex_separation,
)

from helpers import naive_max_leaf_branching, state_space_cap

GOLDEN_H6_LEAVES = 19  # frozen from the first certified oracle run


def all_digraphs(n):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for mask in range(1 << len(pairs)):
        yield Digraph.build(
            n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def vs_pd(D):
    G = underlying_graph(D)
    _, sigma = exact_vertex_separation(G)
    return ordering_to_decomposition(G, sigma)


def dp_best_over_roots(D, P):
    best = None
    for root in range(D.n):
        run = dp_max_leaf_run(D, P, root)
        if run.value is not None and (best is None or run.value > best):
            best = run.value
    return best if best is not None else 0


def test_criterion_1_oracle_equivalence():
    # all 4096 labeled digraphs on 4 vertices, every root
    checked = 0
    for D in all_digraphs(4):
        a, _ = naive_max_leaf_branching(D)
        b, _ = exact_max_leaf_branching(D, 10_000)
        c = dp_best_over_roots(D, vs_pd(D))
        assert a == b == c, (sorted(D.arcs), a, b, c)
        checked += 1
    assert checked == 4096
    # 500 seeded random digraphs with n in [5, 9]
    for seed in range(500):
        rng = random.Random(seed)
        n = rng.randint(5, 9)
        arcs = [(u, v) for u in range(n) for v in range(n)
                if u != v and rng.random() < 0.28]
        D = Digraph.build(n, arcs)
        a, _ = naive_max_leaf_branching(D)
        b, _ = exact_max_leaf_branching(D, 30_000)
        c = dp_best_over_roots(D, vs_pd(D))
        assert a == b == c, (seed, sorted(D.arcs), a, b, c)
    print("criterion 1: PASS — 4096 exhaustive + 500 random digraphs, "
          "dp == naive == branch-and-bound")


def test_criterion_2_local_search_certification():
    for i in range(200):
        n = 8 + (i * 7) % 33  # spread across n in [8, 40]
        D = gen_random_strong(n, seed=1000 + i, pct=12)
        T = improve_to_1ae(D, bfs_branching(D, i % n))
        assert validate(D, T) is None
        assert is_1ae_optimal(D, T).status == "optimal", (i, n)
        assert check_structural_conditions(D, T) == [], (i, n)
    print("criterion 2: PASS — 200 strong digraphs (n <= 40), certified "
          "1-AE optimal with no structural violations")


def test_criterion_3_acyclic_width():
    confirmed = 0
    seed = 0
    while confirmed < 100 and seed < 3000:
        rng = random.Random(seed)
        seed += 1
        n = rng.randint(4, 18)
        arcs = {(u, v) for u in range(n) for v in range(u + 1, n)
                if rng.random() < 0.25}
        for v in range(1, n):
            if not any(b == v for _, b in arcs):
                arcs.add((rng.randint(0, v - 1), v))
        D = Digraph.build(n, arcs)
        ls, _ = exact_max_leaf_branching(D, 10_000)
        for k in (2, 3, 4):
            if ls < k:
                confirmed += 1
                out = decompose_acyclic(D, k)
                assert out.kind == "decomposition", (seed, k)
                pd = out.decomposition
                assert validate_pd(underlying_graph(D), pd) is None, (seed, k)
                assert pd.width <= 4 * k - 6, (seed, k, pd.width)
    assert confirmed >= 100
    print(f"criterion 3: PASS — {confirmed} oracle-confirmed DAG cases, "
          "all decompositions valid with width <= 4k-6")


def test_criterion_4_strong_width():
    instances = [gen_random_strong(10 + (i * 190) // 99, seed=i,
                                   pct=10 if i % 2 else 20)
                 for i in range(100)]
    instances += [gen_ht(t) for t in (6, 7, 8)]
    for idx, D in enumerate(instances):
        _, roots = has_out_branching(D)
        w0 = leaf_count(improve_to_1ae(D, bfs_branching(D, min(roots))))
        k = w0 + 1  # strictly above the local-search witness
        out = decompose_strong(D, k)
        assert out.kind == "decomposition", (idx, D.n, k)
        pd, t = out.decomposition, out.layers
        assert validate_pd(underlying_graph(D), pd) is None, (idx, D.n)
        assert pd.width <= 2 * (t + 1.5) * k, (idx, D.n, pd.width, t, k)
        assert t <= layer_bound(k), (idx, t, k)
    print("criterion 4: PASS — 100 strong digraphs (n <= 200) plus the "
          "t=6..8 extremal family, widths within 2(t+1.5)k and layer bound")


def test_criterion_5_min_in_degree_bound():
    sizes = [4 + (996 * i) // 299 for i in range(300)]
    specs = [InstanceSpec("random_strong_min_in3", (("n", n),), 7000 + i)
             for i, n in enumerate(sizes)]
    report = verify_bound_theorem2(specs, time_budget_ms=60_000)
    assert len(report.records) == 300
    assert all(r.status == "PASS" for r in report.records), [
        (r.n, r.status, r.detail) for r in report.records
        if r.status != "PASS"][:5]
    # for n <= 16 check the oracle value itself; the bound is < 1 for
    # n <= 31, so these pass whenever the optimum is nonzero -- that is
    # the claim being checked, stated explicitly
    for n, seed in [(8, 1), (12, 2), (16, 3)]:
        D = generate(InstanceSpec("random_strong_min_in3", (("n", n),), seed))
        val, _ = exact_max_leaf_branching(D, 60_000)
        assert val >= max(math.ceil(cube_root_bound(n)), 1)
    print("criterion 5: PASS — 300 instances n in [4,1000] meet the "
          "(n/4)^(1/3)-1 leaf bound; small-n oracle values check out")


def test_criterion_6_extremal_family_and_golden_value():
    for t in (6, 7, 8):
        D = gen_ht(t)  # constructor asserts strongness and min in-degree
        assert D.n == t * t + 1
    D6 = gen_ht(6)
    value, T = exact_max_leaf_branching(D6, time_budget_ms=30 * 60 * 1000)
    assert T is not None and validate(D6, T) is None
    assert 1 <= value <= 8 * 6
    assert value == GOLDEN_H6_LEAVES  # regression freeze
    print(f"criterion 6: PASS — H_t structure verified for t=6..8; "
          f"H_6 oracle value {value} within [1, 48], matches golden")


def test_criterion_7_pathwidth_known_values():
    def ugraph(n, edges):
        return Graph(n, tuple((u, v) if u < v else (v, u) for u, v in edges))

    cases = []
    for n in range(2, 11):
        cases.append((ugraph(n, [(i, i + 1) for i in range(n - 1)]), 1))
        if n >= 3:
            cases.append((ugraph(n, [(i, (i + 1) % n) for i in range(n)]), 2))
        cases.append((ugraph(n, [(u, v) for u in range(n)
                                 for v in range(u + 1, n)]), n - 1))
    for G, want in cases:
        value, sigma = exact_vertex_separation(G)
        assert value == want, (G.n, G.m, value, want)
        P = ordering_to_decomposition(G, sigma)
        assert validate_pd(G, P) is None
        assert P.width == want
    print("criterion 7: PASS — path/cycle/complete pathwidths exact for "
          "n <= 10, orderings decompose at exactly that width")


def test_criterion_8_out_tree_reduction():
    for n in (1, 2, 3, 4):
        for D in all_digraphs(n):
            ell = exact_max_leaf_tree(D, 10_000)
            if ell >= 1:
                assert decide_k_dmlot(D, ell).answer == "yes", sorted(D.arcs)
            assert decide_k_dmlot(D, ell + 1).answer == "no", sorted(D.arcs)
    for seed in range(200):
        rng = random.Random(4000 + seed)
        n = rng.randint(5, 9)
        arcs = [(u, v) for u in range(n) for v in range(n)
                if u != v and rng.random() < 0.24]
        D = Digraph.build(n, arcs)
        ell = exact_max_leaf_tree(D, 30_000)
        if ell >= 1:
            assert decide_k_dmlot(D, ell).answer == "yes", (seed, ell)
        assert decide_k_dmlot(D, ell + 1).answer == "no", (seed, ell)
    print("criterion 8: PASS — out-tree decision thresholds agree with the "
          "exact oracle on all digraphs with n <= 4 plus 200 random ones")


def test_criterion_9_dp_state_regression_metric():
    worst_ratio = 0.0
    for seed in range(30):
        rng = random.Random(9000 + seed)
        n = rng.randint(4, 8)
        arcs = [(u, v) for u in range(n) for v in range(n)
                if u != v and rng.random() < 0.35]
        D = Digraph.build(n, arcs)
        P = vs_pd(D)
        cap = state_space_cap(P.width + 1)
        for root in range(n):
            run = dp_max_leaf_run(D, P, root)
            assert run.states_peak <= cap, (seed, root, run.states_peak, cap)
            worst_ratio = max(worst_ratio, run.states_peak / cap)
    print(f"criterion 9: PASS — peak DP states <= Bell(w+1)*4^(w+1) on all "
          f"runs (worst observed ratio {worst_ratio:.3f})")
