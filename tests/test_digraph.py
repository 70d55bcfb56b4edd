import itertools

import pytest

from maxleaf.digraph import (
    Digraph,
    FormatError,
    has_out_branching,
    in_class_L,
    is_acyclic,
    parse,
    reachable_set,
    reachable_subdigraph,
    serialize,
    serialize_json,
    strong_components,
    to_dot,
    underlying_graph,
)


def build(n, arcs):
    return Digraph.build(n, arcs)


class TestParse:
    def test_smallest_strong_digraph(self):
        D = parse("2 2\n0 1\n1 0")
        assert D.n == 2
        assert D.arcs == {(0, 1), (1, 0)}

    def test_directed_4_cycle(self):
        D = parse("4 4\n0 1\n1 2\n2 3\n3 0")
        assert D.arcs == {(0, 1), (1, 2), (2, 3), (3, 0)}

    def test_vertex_out_of_range(self):
        with pytest.raises(FormatError, match="out of range"):
            parse("3 2\n0 1\n0 3")

    def test_self_loop_rejected(self):
        with pytest.raises(FormatError, match="self-loop"):
            parse("2 1\n1 1")

    def test_duplicate_arc_rejected(self):
        with pytest.raises(FormatError, match="duplicate"):
            parse("2 2\n0 1\n0 1")

    def test_error_carries_line_number(self):
        with pytest.raises(FormatError, match="line 3"):
            parse("3 2\n0 1\n0 5")

    def test_bad_header(self):
        with pytest.raises(FormatError, match="header"):
            parse("3\n0 1")

    def test_arc_count_mismatch(self):
        with pytest.raises(FormatError):
            parse("3 2\n0 1")

    def test_json_round_trip(self):
        D = parse('{"n": 3, "arcs": [[0, 1], [1, 2]]}')
        assert D == parse(serialize_json(D))

    def test_edge_list_round_trip(self):
        D = build(5, [(0, 1), (1, 2), (4, 0), (2, 4)])
        assert parse(serialize(D)) == D

    def test_canonical_serialization_sorted(self):
        D = build(3, [(2, 0), (0, 1)])
        assert serialize(D) == "3 2\n0 1\n2 0\n"

    def test_dot_export_mentions_arcs(self):
        assert "0 -> 1" in to_dot(build(2, [(0, 1)]))


class TestStrongComponents:
    def test_cycle_is_one_component(self):
        scc = strong_components(build(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
        assert set(scc.component_id) == {0}

    def test_two_components_one_source(self):
        scc = strong_components(
            build(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]))
        assert scc.component_id == (0, 0, 1, 1)
        assert scc.source_components == {0}
        assert scc.condensation.arcs == {(0, 1)}

    def test_two_source_components(self):
        scc = strong_components(build(4, [(0, 1), (1, 0), (2, 3), (3, 2)]))
        assert len(scc.source_components) == 2

    def test_condensation_acyclic(self):
        import random
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 8)
            arcs = [(u, v) for u in range(n) for v in range(n)
                    if u != v and rng.random() < 0.3]
            scc = strong_components(build(n, arcs))
            cond = scc.condensation
            assert all(len(set(strong_components(cond).component_id)) == cond.n
                       for _ in [0])

    def test_labels_ordered_by_smallest_vertex(self):
        scc = strong_components(build(4, [(2, 3), (3, 2), (0, 1), (1, 0)]))
        assert scc.component_id == (0, 0, 1, 1)

    def test_merging_components_breaks_strongness(self):
        # partition is maximal: any union of two components is not strong
        D = build(5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4)])
        scc = strong_components(D)
        comps = {}
        for v, c in enumerate(scc.component_id):
            comps.setdefault(c, []).append(v)
        for a, b in itertools.combinations(comps.values(), 2):
            sub, _ = D.induced(a + b)
            assert len(set(strong_components(sub).component_id)) > 1


class TestIsAcyclic:
    def test_small_cases(self):
        assert is_acyclic(build(0, []))
        assert is_acyclic(build(3, [(0, 1), (1, 2), (0, 2)]))
        assert not is_acyclic(build(3, [(0, 1), (1, 2), (2, 0)]))
        assert not is_acyclic(build(3, [(0, 1), (1, 0), (1, 2)]))

    def test_matches_strong_components(self):
        for n in range(1, 5):
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            for mask in range(1 << len(pairs)):
                D = build(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
                singletons = len(set(strong_components(D).component_id)) == n
                assert is_acyclic(D) == singletons


class TestOutBranchingExistence:
    def test_single_source_component(self):
        ok, roots = has_out_branching(
            build(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]))
        assert ok and roots == {0, 1}

    def test_two_sources_no_branching(self):
        ok, roots = has_out_branching(build(4, [(0, 1), (1, 0), (2, 3), (3, 2)]))
        assert not ok and roots == frozenset()

    def test_directed_path(self):
        ok, roots = has_out_branching(build(3, [(0, 1), (1, 2)]))
        assert ok and roots == {0}

    def test_matches_direct_reachability_exhaustive_n_le_4(self):
        for n in range(1, 5):
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            for mask in range(1 << len(pairs)):
                arcs = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
                D = build(n, arcs)
                ok, _ = has_out_branching(D)
                direct = any(len(reachable_set(D, v)) == n for v in range(n))
                assert ok == direct


class TestReachableSubdigraph:
    def test_path_suffix(self):
        D = build(3, [(0, 1), (1, 2)])
        sub, relabel = reachable_subdigraph(D, 1)
        assert sub.n == 2 and sub.m == 1
        assert relabel == {1: 0, 2: 1}

    def test_strong_digraph_gives_whole(self):
        D = build(3, [(0, 1), (1, 2), (2, 0)])
        sub, _ = reachable_subdigraph(D, 2)
        assert sub.n == 3 and sub.m == 3

    def test_isolated_vertex(self):
        D = build(3, [(0, 1)])
        sub, relabel = reachable_subdigraph(D, 2)
        assert sub.n == 1 and sub.m == 0 and relabel == {2: 0}

    def test_image_root_has_out_branching(self):
        D = build(5, [(0, 1), (1, 2), (3, 1), (2, 0)])
        for v in range(5):
            sub, relabel = reachable_subdigraph(D, v)
            ok, roots = has_out_branching(sub)
            assert ok and relabel[v] in roots


class TestClassL:
    def test_strong_digraph_trivially_in(self):
        assert in_class_L(build(3, [(0, 1), (1, 2), (2, 0)]))

    def test_full_in_neighbor_coverage(self):
        D = build(4, [(0, 1), (1, 0), (0, 2), (1, 3), (2, 3), (3, 2)])
        assert in_class_L(D)

    def test_missing_in_neighbor(self):
        D = build(4, [(0, 1), (1, 0), (0, 2), (2, 3), (3, 2)])
        assert not in_class_L(D)

    def test_brute_force_agreement_small(self):
        import random
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(2, 6)
            arcs = [(u, v) for u in range(n) for v in range(n)
                    if u != v and rng.random() < 0.35]
            D = build(n, arcs)
            scc = strong_components(D)
            members = {}
            for v, c in enumerate(scc.component_id):
                members.setdefault(c, set()).add(v)
            expect = True
            for cr in members:
                for cq in members:
                    if cr == cq:
                        continue
                    if any((u, v) in D.arcs for u in members[cr]
                           for v in members[cq]):
                        for q in members[cq]:
                            if not any(u in members[cr] for u in D.in_adj[q]):
                                expect = False
            assert in_class_L(D) == expect


class TestUnderlyingGraph:
    def test_two_cycle_becomes_single_edge(self):
        G = underlying_graph(build(2, [(0, 1), (1, 0)]))
        assert G.edges == {frozenset({0, 1})}

    def test_directed_cycle(self):
        G = underlying_graph(build(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
        assert G.m == 4

    def test_empty(self):
        assert underlying_graph(build(3, [])).m == 0

    def test_edge_count_vs_arcs(self):
        D = build(4, [(0, 1), (1, 0), (1, 2)])
        G = underlying_graph(D)
        assert G.m <= D.m
        assert (G.m == D.m) == D.is_oriented()


class TestDigraphInvariants:
    def test_self_loop_rejected_in_build(self):
        with pytest.raises(ValueError):
            build(2, [(1, 1)])

    def test_adjacency_mirrors_arcs(self):
        D = build(4, [(0, 1), (2, 1), (3, 0)])
        derived = {(u, v) for u in range(4) for v in D.out_adj[u]}
        assert derived == set(D.arcs)
        derived_in = {(u, v) for v in range(4) for u in D.in_adj[v]}
        assert derived_in == set(D.arcs)

    def test_oriented_flag(self):
        assert build(3, [(0, 1), (1, 2)]).is_oriented()
        assert not build(3, [(0, 1), (1, 0)]).is_oriented()

    def test_double_arcs_derived(self):
        D = build(3, [(0, 1), (1, 0), (1, 2)])
        assert D.double_arcs() == {(0, 1), (1, 0)}
