import hashlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxleaf import decomposition, digraph, fpt
from maxleaf.branching import OutBranching, OutTree, leaf_count, validate
from maxleaf.decomposition import (
    PathDecomposition,
    decompose_acyclic,
    decompose_strong,
    ordering_to_decomposition,
)
from maxleaf.digraph import Digraph, has_out_branching, underlying_graph
from maxleaf.fpt import (
    Decision,
    DPRun,
    decide_k_dmlob,
    decide_k_dmlot,
    dp_max_leaf_run,
)
from maxleaf.generators import gen_random_dag_single_source, gen_random_strong
from maxleaf.oracles import (
    BudgetExhausted,
    VertexOrdering,
    exact_max_leaf_tree,
    exact_vertex_separation,
)

from helpers import (
    CHECKED_DIGRAPH,
    INVALID_DECOMPOSITIONS,
    naive_max_leaf_branching,
    state_space_cap,
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


class TestStepOrder:
    """The DP introduces each vertex at its first bag and forgets it after
    its last, in vertex order within a bag, forgets first.  The order
    decides the tables, their peak and the witness among equal ones."""

    @staticmethod
    def pinned_runs():
        for n in range(2, 9):
            for seed in range(8):
                D = random_digraph(n, 100 * n + seed, p=0.35)
                pds = [good_pd(D)]
                if n <= 5:
                    pds.append(PathDecomposition((frozenset(range(n)),)))
                for P in pds:
                    runs = [dp_max_leaf_run(D, P),
                            dp_max_leaf_run(D, P, lower_bound=2)]
                    runs += [dp_max_leaf_run(D, P, r) for r in range(n)]
                    for run in runs:
                        yield (run.value, run.states_peak,
                               run.witness.parent if run.witness else None)

    def test_runs_match_the_pinned_digest(self):
        runs = list(self.pinned_runs())
        assert len(runs) == 568
        assert hashlib.sha256(repr(runs).encode()).hexdigest() == (
            "f7a18adc4a868926ad77ff4c21eb485ca56152626bbbeca017b1d98a9eeb232b")

    def test_repeated_bag_changes_nothing(self):
        for seed in range(6):
            D = random_digraph(6, 40 + seed, p=0.35)
            P = good_pd(D)
            assert len(P.bags) > 1
            for i in (0, len(P.bags) // 2, len(P.bags) - 1):
                fat = PathDecomposition(P.bags[:i + 1] + P.bags[i:])
                for root in (None, 0):
                    assert dp_max_leaf_run(D, fat, root) == \
                        dp_max_leaf_run(D, P, root)

    def test_empty_bag_changes_nothing(self):
        D = Digraph.build(2, [])
        gap = PathDecomposition((frozenset({0}), frozenset(), frozenset({1})))
        P = PathDecomposition((frozenset({0}), frozenset({1})))
        assert dp_max_leaf_run(D, gap) == dp_max_leaf_run(D, P) == \
            DPRun(None, None, 1)

    def test_empty_digraph_has_no_out_branching(self):
        D = Digraph.build(0, [])
        assert not has_out_branching(D)[0]
        assert dp_max_leaf_run(D, PathDecomposition(())) == DPRun(None, None, 1)

    def test_one_vertex(self):
        D = Digraph.build(1, [])
        P = PathDecomposition((frozenset({0}),))
        for root in (None, 0):
            assert dp_max_leaf_run(D, P, root) == \
                DPRun(0, OutBranching(1, 0, (-1,)), 1)
            # as at any n, a lower bound above the optimum drops every state
            assert dp_max_leaf_run(D, P, root, lower_bound=1) == \
                DPRun(None, None, 1)


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
                got = dp_max_leaf_run(D, P, root)
                if want is None:
                    assert got.value is None and got.witness is None
                else:
                    assert got.value == want

    def test_random_small(self):
        for seed in range(25):
            D = random_digraph(random.Random(seed).randint(2, 6), seed, p=0.35)
            P = good_pd(D)
            for root in range(D.n):
                want = best_rooted(D, root)
                got = dp_max_leaf_run(D, P, root)
                if want is None:
                    assert got.value is None and got.witness is None
                else:
                    value, T = got.value, got.witness
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
                assert run.states_peak <= 2 * D.n * \
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
            dp_max_leaf_run(D, bogus, 0)

    @pytest.mark.parametrize("message", sorted(INVALID_DECOMPOSITIONS))
    def test_dp_run_rejects_each_invalid_decomposition(self, message):
        P = PathDecomposition(INVALID_DECOMPOSITIONS[message])
        with pytest.raises(ValueError, match=f"invalid decomposition: {message}"):
            dp_max_leaf_run(CHECKED_DIGRAPH, P)

    def test_bad_root_rejected(self):
        D = Digraph.build(2, [(0, 1)])
        with pytest.raises(ValueError, match="root"):
            dp_max_leaf_run(D, good_pd(D), 5)


class TestRootFreeDp:
    """dp_max_leaf_run with no root against per-root runs and the naive
    enumeration."""

    @staticmethod
    def check(D):
        P = good_pd(D)
        run = dp_max_leaf_run(D, P)
        per_root = [dp_max_leaf_run(D, P, r).value for r in range(D.n)]
        feasible = [v for v in per_root if v is not None]
        naive, naive_T = naive_max_leaf_branching(D)
        assert run.states_peak <= state_space_cap(P.width + 1)
        if not feasible:
            assert run.value is None and run.witness is None
            assert naive_T is None
            return False
        assert run.value == max(feasible) == naive
        assert validate(D, run.witness) is None
        assert leaf_count(run.witness) == run.value
        assert dp_max_leaf_run(D, P, lower_bound=run.value).value == run.value
        return True

    def test_every_digraph_on_three_vertices(self):
        pairs = [(u, v) for u in range(3) for v in range(3) if u != v]
        for mask in range(1 << len(pairs)):
            arcs = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            self.check(Digraph.build(3, arcs))

    def test_random_digraphs(self):
        spanned = unspanned = 0
        for seed in range(48):  # each (n, p) pair twice
            n = 1 + seed % 8
            p = (0.15, 0.3, 0.5)[seed % 3]
            if self.check(random_digraph(n, 300 + seed, p)):
                spanned += 1
            else:
                unspanned += 1
        assert spanned and unspanned


@st.composite
def digraphs_with_orderings(draw):
    """A digraph with n <= 8 and at most 2n arcs (so the enumerating
    references stay cheap), and a random vertex ordering."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True)
                if pairs else st.just([]))
    order = draw(st.permutations(range(n)))
    return Digraph.build(n, arcs), order


class TestDpProperties:
    """The DP on decompositions induced by arbitrary vertex orderings,
    not only the paper's constructions, against the enumerating
    references."""

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(digraphs_with_orderings())
    def test_matches_enumeration(self, case):
        D, order = case
        # the cost field is not read by ordering_to_decomposition
        P = ordering_to_decomposition(underlying_graph(D),
                                      VertexOrdering(tuple(order), 0))
        want_at = {root: best_rooted(D, root) for root in range(D.n)}
        feasible = [v for v in want_at.values() if v is not None]
        assert max(feasible, default=0) == naive_max_leaf_branching(D)[0]
        want_at[None] = max(feasible, default=None)
        for root, want in want_at.items():
            run = dp_max_leaf_run(D, P, root)
            assert run.value == want
            if want is None:
                continue
            assert validate(D, run.witness) is None
            assert leaf_count(run.witness) == want
            if root is not None:
                assert run.witness.root == root
            assert dp_max_leaf_run(D, P, root, lower_bound=want).value == want


def _strong_n5():
    # strong; local search finds 3 leaves, the optimum, so k = 4 needs the DP
    return Digraph.build(5, [(0, 4), (1, 0), (1, 2), (2, 1), (2, 3), (3, 1),
                             (3, 4), (4, 0), (4, 2)])


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(fpt, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(fpt, name, counting)
    return calls


class TestRunCounts:
    def test_dmlob_runs_the_dp_once(self, monkeypatch):
        calls = _count_calls(monkeypatch, "dp_max_leaf_run")
        dec = decide_k_dmlob(_strong_n5(), 4)
        assert (dec.answer, dec.leaves, dec.method) == ("no", 3, "dp")
        assert len(calls) == 1

    def test_dmlot_decides_once_per_strong_component(self, monkeypatch):
        calls = _count_calls(monkeypatch, "decide_k_dmlob")
        # a 3-cycle feeding an out-star: 4 strong components, 6 vertices
        D = Digraph.build(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (3, 5)])
        dec = decide_k_dmlot(D, 4)
        assert (dec.answer, dec.leaves) == ("no", 3)
        assert len(calls) == 4

    def test_dmlob_finds_strong_components_once(self, monkeypatch):
        calls = []
        real = digraph._tarjan
        monkeypatch.setattr(digraph, "_tarjan",
                            lambda D: calls.append(D) or real(D))
        assert decide_k_dmlob(_strong_n5(), 4).method == "dp"
        assert len(calls) == 1

    @pytest.mark.parametrize("D, k, decompose", [
        (_strong_n5(), 4, decompose_strong),
        (gen_random_strong(10, 1, 15), 7, decompose_strong),
        (gen_random_dag_single_source(8, 1), 5, decompose_acyclic),
    ])
    def test_dmlob_decomposes_its_own_local_optimum(self, monkeypatch,
                                                    D, k, decompose):
        searches = _count_calls(monkeypatch, "_bfs_1ae")
        runs = _count_calls(monkeypatch, "dp_max_leaf_run")
        monkeypatch.setattr(decomposition, "_bfs_1ae", None)
        dec = decide_k_dmlob(D, k)
        assert dec.method == "dp" and len(runs) == 1
        _, roots = has_out_branching(D)
        assert len(searches) == len(roots)
        monkeypatch.undo()
        # the same bags as the decomposition computed on its own
        assert runs[0][1] == decompose(D, k).decomposition


class TestSharedTransitions:
    """The DP's relabel tables are shared by every run in the process."""

    @staticmethod
    def caches():
        return fpt._intro_moves, fpt._forget

    def test_cold_and_warm_runs_agree(self):
        D = gen_random_strong(10, 1, 15)
        P = good_pd(D)

        def runs():
            return [(r.value, r.states_peak, r.witness)
                    for r in (dp_max_leaf_run(D, P),
                              dp_max_leaf_run(D, P, 3, lower_bound=4))]

        for cache in self.caches():
            cache.cache_clear()
        cold = runs()
        assert all(c.cache_info().currsize > 0 for c in self.caches())
        assert all(c.cache_info().hits > 0 for c in self.caches())
        warm = runs()
        assert warm == cold
        assert cold[0][0] is not None and cold[0][2] is not None

    def test_tables_are_bounded(self):
        for cache in self.caches():
            assert cache.cache_info().maxsize == fpt.TRANSITION_CACHE_SIZE


class TestDeadline:
    def test_expired_deadline_raises_with_local_search_bound(self):
        D = _strong_n5()
        with pytest.raises(BudgetExhausted) as info:
            decide_k_dmlob(D, 4, deadline=time.monotonic())
        e = info.value
        assert e.best_value == 3
        assert validate(D, e.witness) is None
        assert leaf_count(e.witness) == 3

    def test_answer_before_the_dp_ignores_the_deadline(self):
        dec = decide_k_dmlob(_strong_n5(), 3, deadline=time.monotonic())
        assert (dec.answer, dec.method) == ("yes", "local-search")


class TestStateCap:
    def test_cap_raises_with_local_search_bound(self, monkeypatch):
        monkeypatch.setattr(fpt, "MAX_DP_STATES", 10)
        D = _strong_n5()
        with pytest.raises(BudgetExhausted) as info:
            decide_k_dmlob(D, 4)
        e = info.value
        assert e.best_value == 3
        assert validate(D, e.witness) is None
        assert leaf_count(e.witness) == 3

    def test_small_cap_raises_and_ample_cap_does_not(self, monkeypatch):
        D = _strong_n5()
        P = good_pd(D)
        want = dp_max_leaf_run(D, P).value
        monkeypatch.setattr(fpt, "MAX_DP_STATES", 10)
        with pytest.raises(BudgetExhausted):
            dp_max_leaf_run(D, P)
        monkeypatch.setattr(fpt, "MAX_DP_STATES", 10_000)
        assert dp_max_leaf_run(D, P).value == want == 3


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
