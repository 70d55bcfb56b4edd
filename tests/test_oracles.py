import hashlib
import json
import random
import sys
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxleaf.branching import leaf_count, validate
from maxleaf import oracles
from maxleaf.decomposition import ordering_to_decomposition
from maxleaf.digraph import Digraph, Graph, underlying_graph
from maxleaf.fpt import decide_k_dmlob, decide_k_dmlot, dp_max_leaf_run
from maxleaf.generators import (
    gen_random_dag_single_source,
    gen_random_strong,
    gen_random_strong_min_in3,
)
from maxleaf.oracles import (
    BudgetExhausted,
    exact_max_leaf_branching,
    exact_max_leaf_tree,
    exact_vertex_separation,
)

from helpers import naive_max_leaf_branching, table_vertex_separation


def random_digraph(n, seed, p=0.3):
    rng = random.Random(seed)
    arcs = [(u, v) for u in range(n) for v in range(n)
            if u != v and rng.random() < p]
    return Digraph.build(n, arcs)


class TestNaiveOracle:
    def test_no_branching_gives_zero(self):
        assert naive_max_leaf_branching(Digraph.build(3, [])) == (0, None)

    def test_star(self):
        D = Digraph.build(4, [(0, 1), (0, 2), (0, 3)])
        v, T = naive_max_leaf_branching(D)
        assert v == 3 and T.root == 0

    def test_cycle(self):
        D = Digraph.build(4, [(i, (i + 1) % 4) for i in range(4)])
        v, _ = naive_max_leaf_branching(D)
        assert v == 1

    def test_witness_validates(self):
        D = random_digraph(5, 1, p=0.5)
        v, T = naive_max_leaf_branching(D)
        if T is not None:
            assert validate(D, T) is None
            assert leaf_count(T) == v


class TestBranchAndBound:
    def test_agrees_with_naive_on_random_instances(self):
        for seed in range(40):
            D = random_digraph(random.Random(seed).randint(2, 7), seed)
            a, _ = naive_max_leaf_branching(D)
            b, T = exact_max_leaf_branching(D, 10_000)
            assert a == b
            if T is not None:
                assert leaf_count(T) == b

    def test_complete_digraph(self):
        n = 6
        D = Digraph.build(n, [(u, v) for u in range(n) for v in range(n) if u != v])
        v, _ = exact_max_leaf_branching(D, 10_000)
        assert v == n - 1

    def test_single_vertex(self):
        v, T = exact_max_leaf_branching(Digraph.build(1, []))
        assert v == 0 and T.n == 1

    def test_budget_exhaustion_carries_lower_bound(self):
        D = random_digraph(14, 2, p=0.6)
        with pytest.raises(BudgetExhausted) as e:
            exact_max_leaf_branching(D, time_budget_ms=0.0)
        assert e.value.best_value >= 0

    def test_initial_lower_bound_respected(self):
        # seeding with the true optimum cannot change the answer
        D = random_digraph(6, 7, p=0.4)
        v0, T0 = exact_max_leaf_branching(D, 10_000)
        v1, _ = exact_max_leaf_branching(D, 10_000, initial_lower_bound=(v0, T0))
        assert v0 == v1

    def test_values_and_witnesses_pinned(self):
        # the values of twelve searches are pinned, their witnesses validate
        # at those values, and their roots and parent tuples are hashed, so
        # any change to the search order or the tie-breaks changes the digest
        values, rows = [], []
        for s in range(4):
            for D in (gen_random_strong(13 + s, s, 15),
                      gen_random_strong_min_in3(14 + s, s),
                      gen_random_dag_single_source(16, s)):
                v, T = exact_max_leaf_branching(D, 60_000)
                assert validate(D, T) is None and leaf_count(T) == v
                values.append(v)
                rows.append([v, T.root, list(T.parent)])
        assert values == [9, 10, 11, 9, 10, 12, 11, 11, 10, 11, 13, 11]
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == (
            "024607e59e68b7ced716da2a320f041ecf4e8c5f3031a6c5c2877f87cb70a209")

    def test_recursion_limit_restored(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            with pytest.raises(BudgetExhausted):
                exact_max_leaf_branching(gen_random_strong(30, 0, 30), 0.0)
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(limit)


class TestMaxLeafTree:
    def test_tree_at_least_branching(self):
        for seed in range(15):
            D = random_digraph(6, 100 + seed, p=0.35)
            vb, _ = exact_max_leaf_branching(D, 10_000)
            vt = exact_max_leaf_tree(D, 10_000)
            assert vt >= vb

    def test_two_disjoint_stars(self):
        # no out-branching exists, but an out-tree covers one star
        D = Digraph.build(6, [(0, 1), (0, 2), (3, 4), (3, 5)])
        assert exact_max_leaf_branching(D, 10_000) == (0, None)
        assert exact_max_leaf_tree(D, 10_000) == 2

    def test_strong_digraph_tree_equals_branching(self):
        D = Digraph.build(4, [(i, (i + 1) % 4) for i in range(4)])
        vb, _ = exact_max_leaf_branching(D, 10_000)
        assert exact_max_leaf_tree(D, 10_000) == vb

    def test_one_solve_per_strong_component(self, monkeypatch):
        calls = []
        solve = oracles.exact_max_leaf_branching

        def counted(D, time_budget_ms):
            calls.append(D.n)
            return solve(D, time_budget_ms)

        monkeypatch.setattr(oracles, "exact_max_leaf_branching", counted)
        D = Digraph.build(14, [(i, (i + 1) % 14) for i in range(14)]
                          + [(0, 7), (3, 10), (5, 12)])
        assert exact_max_leaf_tree(D, 10_000) == solve(D, 10_000)[0]
        assert calls == [14]
        # 0 -> 1 <-> 2 -> 3: three components, reaching 4, 3 and 1 vertices
        calls.clear()
        D = Digraph.build(4, [(0, 1), (1, 2), (2, 1), (2, 3)])
        assert exact_max_leaf_tree(D, 10_000) == 2
        assert calls == [4, 3, 1]

    def test_budget_bounds_the_whole_call(self, monkeypatch):
        # every solve takes 3 s of a fake clock, so the budget of 10 s is
        # shared out as 10, 7 and 4 s, not given to each solve in full
        clock = [100.0]
        budgets = []

        def solve(D, time_budget_ms):
            budgets.append(time_budget_ms)
            clock[0] += 3.0
            return 0, None

        monkeypatch.setattr(oracles.time, "monotonic", lambda: clock[0])
        monkeypatch.setattr(oracles, "exact_max_leaf_branching", solve)
        D = Digraph.build(3, [(0, 1), (1, 2)])
        exact_max_leaf_tree(D, 10_000)
        assert budgets == [10_000, 7_000, 4_000]


def ugraph(n, edges):
    return Graph(n, tuple((u, v) if u < v else (v, u) for u, v in edges))


def path_graph(n):
    return ugraph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return ugraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class TestVertexSeparation:
    def test_empty_and_singleton(self):
        assert exact_vertex_separation(ugraph(0, []))[0] == 0
        assert exact_vertex_separation(ugraph(1, []))[0] == 0

    def test_path_graph(self):
        assert exact_vertex_separation(path_graph(6))[0] == 1

    def test_cycle_graph(self):
        G = ugraph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert exact_vertex_separation(G)[0] == 2

    def test_complete_graph(self):
        assert exact_vertex_separation(complete_graph(5))[0] == 4

    def test_caterpillar_pathwidth_one(self):
        edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]
        assert exact_vertex_separation(ugraph(7, edges))[0] == 1

    def test_spider_pathwidth_two(self):
        # three legs of length two meeting at a center
        edges = [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]
        assert exact_vertex_separation(ugraph(7, edges))[0] == 2

    def test_ordering_achieves_cost(self):
        G = underlying_graph(random_digraph(8, 3, p=0.3))
        value, ordering = exact_vertex_separation(G)
        # recompute the max prefix boundary of the returned ordering
        pos = {v: i for i, v in enumerate(ordering.order)}
        worst = 0
        for i in range(G.n):
            prefix = set(ordering.order[: i + 1])
            boundary = sum(
                1 for v in prefix
                if any(w not in prefix for w in G.adjacency()[v]))
            worst = max(worst, boundary)
        assert worst == value == ordering.cost
        assert sorted(ordering.order) == list(range(G.n))

    def test_size_guard(self):
        with pytest.raises(ValueError, match="n <= 20"):
            exact_vertex_separation(ugraph(21, []))

    def test_monotone_under_edge_removal(self):
        G = complete_graph(5)
        sub = ugraph(5, G.pairs[:6])
        assert exact_vertex_separation(sub)[0] <= exact_vertex_separation(G)[0]

    def test_values_and_orders_pinned(self):
        # values and orderings of twelve DPs, hashed; any change to the
        # recurrence or the order reconstruction changes the digest
        rows = []
        for s in range(4):
            for D in (gen_random_strong(9 + s, s, 15),
                      gen_random_strong_min_in3(10 + s, s),
                      gen_random_dag_single_source(12, s)):
                value, ordering = exact_vertex_separation(underlying_graph(D))
                rows.append([value, list(ordering.order)])
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == (
            "b7b764a0e2f3f0eeeb956b9911682c12b838b3bac66031147aaad639a6f4f084")

    @pytest.mark.parametrize("D, value, order", [
        (gen_random_strong(20, 1, 15), 9,
         (19, 16, 14, 13, 9, 7, 6, 5, 3, 2, 8, 4, 12, 11, 10, 18, 17, 15, 1, 0)),
        (gen_random_strong_min_in3(20, 1), 8,
         (19, 18, 17, 16, 15, 14, 13, 4, 1, 10, 8, 9, 5, 7, 12, 6, 11, 3, 2, 0)),
    ], ids=["random_strong", "random_strong_min_in3"])
    def test_size_limit_pinned(self, D, value, order):
        # n = 20 is the largest size the guard admits
        assert exact_vertex_separation(underlying_graph(D)) == (
            value, oracles.VertexOrdering(order, value))


def ordering_cost(nbr, order):
    """Largest prefix boundary of `order`: the most vertices of a prefix
    that have a neighbour outside it."""
    worst, prefix = 0, 0
    for v in order:
        prefix |= 1 << v
        b = sum(1 for u in order if prefix >> u & 1 and nbr[u] & ~prefix)
        worst = max(worst, b)
    return worst


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return ugraph(n, edges)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_graphs())
def test_vertex_separation_matches_brute_force(G):
    nbr = [0] * G.n
    for u, v in G.pairs:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    value, ordering = exact_vertex_separation(G)
    assert value == min(ordering_cost(nbr, p)
                        for p in permutations(range(G.n)))
    assert sorted(ordering.order) == list(range(G.n))
    assert ordering_cost(nbr, ordering.order) == ordering.cost == value


@st.composite
def table_graphs(draw):
    """A graph with n <= 12: edgeless, complete, or with a drawn edge set."""
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    kind = draw(st.sampled_from(["edgeless", "complete", "drawn"]))
    if kind == "edgeless" or not pairs:
        return ugraph(n, [])
    if kind == "complete":
        return ugraph(n, pairs)
    return ugraph(n, draw(st.lists(st.sampled_from(pairs), unique=True)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(table_graphs())
@example(ugraph(0, []))
@example(ugraph(1, []))
@example(ugraph(2, [(0, 1)]))
def test_vertex_separation_matches_table_dp(G):
    # the same value and the same order as the DP over a table of every set
    assert exact_vertex_separation(G) == table_vertex_separation(G)


@st.composite
def small_digraphs(draw):
    """A digraph with n <= 7 and at most 3n arcs, so that naive
    enumeration stays cheap."""
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), max_size=3 * n, unique=True)
                if pairs else st.just([]))
    return Digraph.build(n, arcs)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_digraphs())
def test_three_solvers_agree(D):
    # naive enumeration, the branching search and the DP over an optimal
    # path decomposition share no code; the DP's value is None, where the
    # others give 0, when D has no out-branching.  decide_k_dmlob answers
    # every digraph with an out-branching, whatever its class
    value, T = exact_max_leaf_branching(D, 10_000)
    assert value == naive_max_leaf_branching(D)[0]
    assert T is None or validate(D, T) is None and leaf_count(T) == value
    G = underlying_graph(D)
    P = ordering_to_decomposition(G, exact_vertex_separation(G)[1])
    assert (dp_max_leaf_run(D, P).value or 0) == value
    if T is not None:  # D has an out-branching
        yes = decide_k_dmlob(D, value)
        assert yes.answer == "yes"
        assert yes.witness is None or validate(D, yes.witness) is None
        no = decide_k_dmlob(D, value + 1)
        assert (no.answer, no.leaves) == ("no", value)
    ell = exact_max_leaf_tree(D, 10_000)
    if ell >= 1:
        assert decide_k_dmlot(D, ell).answer == "yes"
    assert decide_k_dmlot(D, ell + 1).answer == "no"
