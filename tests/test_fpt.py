import random

import pytest

from maxleaf.branching import OutTree, leaf_count, validate
from maxleaf.decomposition import PathDecomposition, ordering_to_decomposition
from maxleaf.digraph import Digraph, underlying_graph
from maxleaf.fpt import (
    Decision,
    NicePD,
    decide_k_dmlob,
    decide_k_dmlot,
    dp_max_leaf,
    dp_max_leaf_run,
    state_space_cap,
    to_nice,
)
from maxleaf.oracles import (
    exact_max_leaf_tree,
    exact_vertex_separation,
    naive_max_leaf_branching,
)


def random_digraph(n, seed, p=0.3):
    rng = random.Random(seed)
    arcs = [(u, v) for u in range(n) for v in range(n)
            if u != v and rng.random() < p]
    return Digraph.build(n, arcs)


def good_pd(D):
    G = underlying_graph(D)
    _, sigma = exact_vertex_separation(G)
    return ordering_to_decomposition(G, sigma)


def best_rooted(D, root):
    """Reference: best leaf count over out-branchings rooted exactly at root."""
    from itertools import product

    from maxleaf.branching import OutBranching
    best = None
    others = [v for v in range(D.n) if v != root]
    choices = [D.in_adj[v] for v in others]
    if any(not c for c in choices):
        return None
    for combo in product(*choices):
        parent = [-1] * D.n
        for v, p in zip(others, combo):
            parent[v] = p
        T = OutBranching(D.n, root, tuple(parent))
        if any(d < 0 for d in T.depths()):
            continue
        k = leaf_count(T)
        if best is None or k > best:
            best = k
    return best


class TestToNice:
    def test_steps_balanced(self):
        P = PathDecomposition((frozenset({0, 1}), frozenset({1, 2})))
        nice = to_nice(P)
        intro = [v for k, v in nice.steps if k == "intro"]
        forget = [v for k, v in nice.steps if k == "forget"]
        assert sorted(intro) == sorted(forget) == [0, 1, 2]

    def test_intro_before_forget(self):
        P = PathDecomposition((frozenset({0}), frozenset({0, 1}),
                               frozenset({1})))
        nice = to_nice(P)
        for v in (0, 1):
            i = nice.steps.index(("intro", v))
            f = nice.steps.index(("forget", v))
            assert i < f

    def test_width_preserved(self):
        P = PathDecomposition((frozenset({0, 1, 2}), frozenset({2, 3})))
        assert to_nice(P).width == P.width


class TestStateSpaceCap:
    def test_small_values(self):
        # Bell numbers 1, 1, 2, 5, 15
        assert state_space_cap(0) == 1
        assert state_space_cap(1) == 1 * 4
        assert state_space_cap(2) == 2 * 16
        assert state_space_cap(3) == 5 * 64

    def test_monotone(self):
        caps = [state_space_cap(i) for i in range(8)]
        assert caps == sorted(caps)


class TestDpAgainstReference:
    def test_exhaustive_tiny(self):
        # every digraph on 3 vertices, every root
        pairs = [(u, v) for u in range(3) for v in range(3) if u != v]
        for mask in range(1 << len(pairs)):
            arcs = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            D = Digraph.build(3, arcs)
            P = good_pd(D)
            for root in range(3):
                want = best_rooted(D, root)
                got = dp_max_leaf(D, P, root)
                if want is None:
                    assert got is None
                else:
                    assert got is not None and got[0] == want

    def test_random_small(self):
        for seed in range(25):
            D = random_digraph(random.Random(seed).randint(2, 6), seed, p=0.35)
            P = good_pd(D)
            for root in range(D.n):
                want = best_rooted(D, root)
                got = dp_max_leaf(D, P, root)
                if want is None:
                    assert got is None
                else:
                    value, T = got
                    assert value == want
                    assert T.root == root
                    assert validate(D, T) is None
                    assert leaf_count(T) == value

    def test_states_within_cap(self):
        for seed in range(10):
            D = random_digraph(7, 50 + seed, p=0.3)
            P = good_pd(D)
            for root in range(D.n):
                run = dp_max_leaf_run(D, P, root)
                assert run.states_peak <= len(to_nice(P).steps) * \
                    state_space_cap(P.width + 1)

    def test_lower_bound_pruning_preserves_optimum(self):
        D = random_digraph(6, 9, p=0.4)
        P = good_pd(D)
        for root in range(D.n):
            base = dp_max_leaf_run(D, P, root)
            if base.value is None:
                continue
            pruned = dp_max_leaf_run(D, P, root, lower_bound=base.value)
            assert pruned.value == base.value

    def test_invalid_decomposition_rejected(self):
        D = Digraph.build(3, [(0, 1), (1, 2)])
        bogus = PathDecomposition((frozenset({0, 1}),))
        with pytest.raises(ValueError, match="invalid decomposition"):
            dp_max_leaf(D, bogus, 0)

    def test_bad_root_rejected(self):
        D = Digraph.build(2, [(0, 1)])
        with pytest.raises(ValueError, match="root"):
            dp_max_leaf(D, good_pd(D), 5)


class TestDecideDmlob:
    def test_cycle_no_two_leaves(self):
        D = Digraph.build(6, [(i, (i + 1) % 6) for i in range(6)])
        assert decide_k_dmlob(D, 2).answer == "no"
        assert decide_k_dmlob(D, 1).answer == "yes"

    def test_bidirected_k4(self):
        D = Digraph.build(4, [(u, v) for u in range(4) for v in range(4) if u != v])
        dec = decide_k_dmlob(D, 3)
        assert dec.answer == "yes"
        assert leaf_count(dec.witness) >= 3

    def test_no_branching(self):
        D = Digraph.build(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert decide_k_dmlob(D, 1).answer == "no"

    def test_k_zero_trivial_yes(self):
        D = Digraph.build(2, [(0, 1)])
        assert decide_k_dmlob(D, 0).answer == "yes"

    def test_unsupported_class(self):
        # out-branching exists but digraph is cyclic, not strong, not in
        # the sufficient-condition class
        D = Digraph.build(3, [(0, 1), (1, 2), (2, 1)])
        k_big = 3
        assert decide_k_dmlob(D, k_big).answer in ("unsupported", "no")

    def test_thresholds_match_oracle_on_supported(self):
        for seed in range(10):
            rng = random.Random(seed)
            n = rng.randint(4, 8)
            perm = list(range(n))
            rng.shuffle(perm)
            arcs = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
            arcs |= {(u, v) for u in range(n) for v in range(n)
                     if u != v and rng.random() < 0.2}
            D = Digraph.build(n, arcs)
            opt, _ = naive_max_leaf_branching(D)
            assert decide_k_dmlob(D, opt).answer == "yes"
            assert decide_k_dmlob(D, opt + 1).answer == "no"

    def test_acyclic_route(self):
        # single-source DAG forces the acyclic decomposition path
        D = Digraph.build(5, [(0, 1), (0, 2), (1, 3), (2, 4), (1, 4)])
        opt, _ = naive_max_leaf_branching(D)
        assert decide_k_dmlob(D, opt).answer == "yes"
        assert decide_k_dmlob(D, opt + 1).answer == "no"

    def test_to_dict_serializes_witness(self):
        D = Digraph.build(3, [(0, 1), (0, 2)])
        dec = decide_k_dmlob(D, 2)
        doc = dec.to_dict()
        assert doc["answer"] == "yes"
        assert doc["witness"]["root"] == 0


class TestDecideDmlot:
    def test_single_arc(self):
        D = Digraph.build(2, [(0, 1)])
        dec = decide_k_dmlot(D, 1)
        assert dec.answer == "yes"
        assert isinstance(dec.witness, OutTree)

    def test_edgeless(self):
        assert decide_k_dmlot(Digraph.build(3, []), 1).answer == "no"

    def test_non_spanning_tree_found(self):
        # out-star on {0,1,2} plus unreachable 2-cycle
        D = Digraph.build(5, [(0, 1), (0, 2), (3, 4), (4, 3)])
        dec = decide_k_dmlot(D, 2)
        assert dec.answer == "yes"
        assert dec.witness.vertices == frozenset({0, 1, 2})

    def test_subdigraph_outside_sufficient_condition(self):
        # reachable subdigraph of 0 is cyclic, not strong, fails the
        # syntactic class test -- must still be decided
        D = Digraph.build(3, [(0, 1), (1, 2), (2, 1)])
        assert decide_k_dmlot(D, 1).answer == "yes"
        assert decide_k_dmlot(D, 2).answer == "no"

    def test_matches_tree_oracle(self):
        for seed in range(15):
            D = random_digraph(random.Random(seed).randint(2, 6), 200 + seed)
            ell = exact_max_leaf_tree(D, 10_000)
            for k in (max(ell, 1), ell + 1):
                want = "yes" if ell >= k else "no"
                assert decide_k_dmlot(D, k).answer == want

    def test_no_reports_best_leaves_over_all_vertices(self):
        # vertex 0 reaches an out-star with 3 leaves; the last vertex
        # tried (3) reaches only itself, with 0 leaves
        D = Digraph.build(4, [(0, 1), (0, 2), (0, 3)])
        dec = decide_k_dmlot(D, 4)
        assert dec.answer == "no"
        assert dec.leaves == 3

    def test_witness_arcs_exist_in_host(self):
        D = random_digraph(6, 77, p=0.4)
        ell = exact_max_leaf_tree(D, 10_000)
        if ell >= 1:
            dec = decide_k_dmlot(D, ell)
            w = dec.witness
            for v, p in w.parent.items():
                assert (p, v) in D.arcs
