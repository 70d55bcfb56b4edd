import random

import pytest

from maxleaf.branching import OutBranching, leaf_count, validate
from maxleaf.decomposition import (
    PathDecomposition,
    build_beta_tree,
    decompose_acyclic,
    decompose_strong,
    layer_bound,
    ordering_to_decomposition,
    validate_pd,
)
from maxleaf.digraph import Digraph, Graph, underlying_graph
from maxleaf.local_search import bfs_branching, improve_to_1ae
from maxleaf.oracles import exact_vertex_separation


def ugraph(n, edges):
    return Graph(n, frozenset(frozenset(e) for e in edges))


def random_strong(n, seed, extra=0.2):
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    arcs = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < extra:
                arcs.add((u, v))
    return Digraph.build(n, arcs)


class TestPathDecomposition:
    def test_width(self):
        P = PathDecomposition((frozenset({0, 1}), frozenset({1, 2, 3})))
        assert P.width == 2

    def test_json_round_trip(self):
        P = PathDecomposition((frozenset({0, 1}), frozenset({1, 2})))
        assert PathDecomposition.from_json(P.to_json()) == P

    def test_text_round_trip(self):
        P = PathDecomposition((frozenset({0, 1}), frozenset({1, 2})))
        assert PathDecomposition.from_text(P.to_text()) == P


class TestValidatePd:
    def test_valid_path(self):
        G = ugraph(3, [(0, 1), (1, 2)])
        P = PathDecomposition((frozenset({0, 1}), frozenset({1, 2})))
        assert validate_pd(G, P) is None

    def test_missing_vertex(self):
        G = ugraph(3, [(0, 1)])
        P = PathDecomposition((frozenset({0, 1}),))
        assert "axiom 1" in validate_pd(G, P)

    def test_missing_edge(self):
        G = ugraph(3, [(0, 1), (1, 2)])
        P = PathDecomposition((frozenset({0, 1}), frozenset({2})))
        assert "axiom 2" in validate_pd(G, P)

    def test_non_contiguous_occurrence(self):
        G = ugraph(3, [(0, 1), (1, 2)])
        P = PathDecomposition(
            (frozenset({0, 1}), frozenset({1, 2}), frozenset({0})))
        assert "axiom 3" in validate_pd(G, P)

    def test_foreign_vertex(self):
        G = ugraph(2, [(0, 1)])
        P = PathDecomposition((frozenset({0, 1, 5}),))
        assert "outside" in validate_pd(G, P)


class TestOrderingToDecomposition:
    def test_width_matches_ordering_cost(self):
        for seed in range(10):
            D = random_strong(8, seed)
            G = underlying_graph(D)
            cost, sigma = exact_vertex_separation(G)
            P = ordering_to_decomposition(G, sigma)
            assert validate_pd(G, P) is None
            assert P.width == cost

    def test_path_graph_width_one(self):
        G = ugraph(5, [(i, i + 1) for i in range(4)])
        _, sigma = exact_vertex_separation(G)
        P = ordering_to_decomposition(G, sigma)
        assert P.width == 1


class TestTighten:
    def test_never_widens_and_stays_valid(self):
        from maxleaf.decomposition import tighten
        for seed in range(8):
            D = random_strong(9, seed)
            G = underlying_graph(D)
            _, sigma = exact_vertex_separation(G)
            P = ordering_to_decomposition(G, sigma)
            fat = PathDecomposition(tuple(b | frozenset({0, 1}) for b in P.bags))
            assert validate_pd(G, fat) is None
            slim = tighten(G, fat)
            assert validate_pd(G, slim) is None
            assert slim.width <= fat.width

    def test_removes_globally_padded_vertex(self):
        from maxleaf.decomposition import tighten
        G = ugraph(4, [(0, 1), (1, 2), (2, 3)])
        fat = PathDecomposition((
            frozenset({0, 1, 3}), frozenset({1, 2, 3}), frozenset({2, 3})))
        slim = tighten(G, fat)
        assert validate_pd(G, slim) is None
        assert slim.width <= fat.width
        assert 3 not in slim.bags[0]


def layered_dag(width, depth):
    """Single-source DAG: source feeds layer 0, each layer feeds the next."""
    arcs = []
    n = 1 + width * depth
    for j in range(width):
        arcs.append((0, 1 + j))
    for i in range(depth - 1):
        for j in range(width):
            for j2 in range(width):
                arcs.append((1 + i * width + j, 1 + (i + 1) * width + j2))
    return Digraph.build(n, arcs)


class TestDecomposeAcyclic:
    def test_witness_when_k_small(self):
        D = layered_dag(3, 3)
        out = decompose_acyclic(D, 2)
        assert out.kind == "witness"
        assert leaf_count(out.witness) >= 2
        assert validate(D, out.witness) is None

    def test_decomposition_when_k_large(self):
        D = layered_dag(2, 4)
        k = 50
        out = decompose_acyclic(D, k)
        assert out.kind == "decomposition"
        assert validate_pd(underlying_graph(D), out.decomposition) is None
        assert out.decomposition.width <= 4 * k - 6
        assert out.diagnostics == ()

    def test_directed_path_width_small(self):
        n = 12
        D = Digraph.build(n, [(i, i + 1) for i in range(n - 1)])
        out = decompose_acyclic(D, 2)
        assert out.kind == "decomposition"
        assert validate_pd(underlying_graph(D), out.decomposition) is None
        assert out.decomposition.width <= 2

    def test_random_dags(self):
        rng = random.Random(5)
        for seed in range(12):
            n = rng.randint(4, 12)
            arcs = {(u, v) for u in range(n) for v in range(u + 1, n)
                    if rng.random() < 0.4}
            arcs |= {(0, v) for v in range(1, n)
                     if not any(u < v for u, _v in arcs if _v == v)}
            # ensure every v >= 1 has an in-arc so 0 is the only source
            for v in range(1, n):
                if not any(b == v for _, b in arcs):
                    arcs.add((0, v))
            D = Digraph.build(n, arcs)
            for k in (2, 3, n):
                out = decompose_acyclic(D, k)
                if out.kind == "witness":
                    assert leaf_count(out.witness) >= k
                else:
                    assert validate_pd(underlying_graph(D),
                                       out.decomposition) is None
                    assert out.diagnostics == ()

    def test_rejects_cyclic(self):
        D = Digraph.build(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ValueError, match="acyclic"):
            decompose_acyclic(D, 2)

    def test_rejects_multiple_sources(self):
        D = Digraph.build(3, [(0, 2), (1, 2)])
        with pytest.raises(ValueError, match="single source"):
            decompose_acyclic(D, 2)


class TestBetaTree:
    def test_leaf_paths_partition_original_vertices(self):
        for seed in range(10):
            D = random_strong(12, seed)
            T = improve_to_1ae(D, bfs_branching(D, 0))
            bt = build_beta_tree(D, T)  # internal partition assertions fire
            assert bt.layers >= 1

    def test_leaf_nodes_are_paths(self):
        D = random_strong(10, 3)
        T = improve_to_1ae(D, bfs_branching(D, 0))
        bt = build_beta_tree(D, T)
        for node in bt.leaf_nodes():
            ch = node.tree.children()
            assert all(len(c) <= 1 for c in ch.values())

    def test_clone_resolution(self):
        D = random_strong(10, 4)
        T = improve_to_1ae(D, bfs_branching(D, 0))
        bt = build_beta_tree(D, T)
        for c in bt.clone_of:
            assert c >= D.n
            assert 0 <= bt.orig(c) < D.n


class TestLayerBound:
    def test_values(self):
        assert layer_bound(2) == 2 + 3  # ceil(log_{4/3} 2) = 3
        assert layer_bound(1) == layer_bound(2)
        assert layer_bound(100) > layer_bound(10)


class TestDecomposeStrong:
    def test_witness_on_complete_digraph(self):
        n = 8
        D = Digraph.build(n, [(u, v) for u in range(n) for v in range(n) if u != v])
        out = decompose_strong(D, 4)
        assert out.kind == "witness"
        assert leaf_count(out.witness) >= 4

    def test_decomposition_on_directed_cycle(self):
        n = 10
        D = Digraph.build(n, [(i, (i + 1) % n) for i in range(n)])
        out = decompose_strong(D, 3)
        assert out.kind == "decomposition"
        assert validate_pd(underlying_graph(D), out.decomposition) is None
        assert out.diagnostics == ()

    def test_random_strong_instances(self):
        for seed in range(12):
            D = random_strong(random.Random(seed).randint(6, 14), seed)
            for k in (3, 5):
                out = decompose_strong(D, k, seed=seed)
                if out.kind == "witness":
                    assert leaf_count(out.witness) >= k
                    assert validate(D, out.witness) is None
                else:
                    assert validate_pd(underlying_graph(D),
                                       out.decomposition) is None
                    assert out.layers <= layer_bound(k)
                    assert out.decomposition.width <= 2 * (out.layers + 1.5) * k
                    assert out.diagnostics == ()

    def test_class_L_instance_accepted(self):
        # two strong components, every sink-component vertex has an
        # in-neighbor in the source component
        D = Digraph.build(4, [(0, 1), (1, 0), (0, 2), (1, 3), (2, 3), (3, 2)])
        out = decompose_strong(D, 50)
        assert out.kind == "decomposition"
        assert validate_pd(underlying_graph(D), out.decomposition) is None

    def test_rejects_unsupported(self):
        D = Digraph.build(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        with pytest.raises(ValueError):
            decompose_strong(D, 2)

