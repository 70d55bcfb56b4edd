import dataclasses
import hashlib
import random

import pytest

from maxleaf import decomposition
from maxleaf.branching import OutBranching, classify, leaf_count, validate
from maxleaf.decomposition import (
    PathDecomposition,
    _run_spans,
    build_beta_tree,
    decompose_acyclic,
    decompose_strong,
    layer_bound,
    ordering_to_decomposition,
    validate_pd,
)
from maxleaf.digraph import Digraph, FormatError, Graph, underlying_graph
from maxleaf.generators import gen_random_dag_single_source, gen_random_strong
from maxleaf.local_search import bfs_branching, improve_to_1ae
from maxleaf.oracles import exact_vertex_separation

from helpers import CHECKED_DIGRAPH, INVALID_DECOMPOSITIONS


def ugraph(n, edges):
    return Graph(n, tuple(edges))


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

    def test_from_text_tokens_must_be_decimal_form(self):
        # int() reads this line as the bag {10, 2, 3}
        with pytest.raises(FormatError):
            PathDecomposition.from_text("1_0 +2 \u0663\n")


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


class TestTightenChecksItsInput:
    @pytest.mark.parametrize("message", sorted(INVALID_DECOMPOSITIONS))
    def test_invalid_input_raises(self, message):
        from maxleaf.decomposition import tighten
        G = underlying_graph(CHECKED_DIGRAPH)
        P = PathDecomposition(INVALID_DECOMPOSITIONS[message])
        assert validate_pd(G, P).startswith(message)
        with pytest.raises(AssertionError):
            tighten(G, P)


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


class TestRunSpans:
    def test_merged_runs_give_first_and_last_bag(self):
        runs = [(0, 0, 1), (2, 0, 3), (1, 3, 3), (0, 2, 2), (2, 1, 1), (1, 2, 3)]
        assert _run_spans(3, runs) == ([0, 2, 0], [2, 3, 3])

    def test_gap_between_runs_raises(self):
        with pytest.raises(AssertionError, match="vertex 0 occurs non-contiguously"):
            _run_spans(2, [(0, 0, 0), (1, 0, 2), (0, 2, 2)])

    def test_vertex_without_run_raises(self):
        with pytest.raises(AssertionError, match="in no bag"):
            _run_spans(3, [(0, 0, 1), (2, 1, 1)])


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

    def test_multi_bag_decomposition_is_pinned(self):
        out = decompose_acyclic(gen_random_dag_single_source(60, 0, 2), 29)
        pd = out.decomposition
        assert hashlib.sha256(pd.to_json().encode()).hexdigest() == (
            "405a19c6ad9ddf5c34fd21da0d2b2fd44a93c8aa40c5fccd85fc78b2db5d2de7")
        assert (len(pd.bags), pd.width, out.diagnostics) == (7, 45, ())

    def test_one_bag_decomposition_is_pinned(self):
        # every vertex in one bag, returned without building UN(D)
        out = decompose_acyclic(gen_random_dag_single_source(200, 0, 25), 200)
        pd = out.decomposition
        assert hashlib.sha256(pd.to_json().encode()).hexdigest() == (
            "a7934be8fcf6c3572f822a710925d76c63402f96f6e3ed42d65423c829e9676b")
        assert pd.bags == (frozenset(range(200)),)
        assert (pd.width, out.layers, out.diagnostics) == (199, 1, ())

    def test_w_vertex_on_a_residual_path_raises(self, monkeypatch):
        # a leaf of T spliced into a link path, after its first vertex
        def spliced(T):
            cls = classify(T)
            i = next(i for i, p in enumerate(cls.link_paths) if len(p) > 1)
            p = cls.link_paths[i]
            paths = list(cls.link_paths)
            paths[i] = (p[0], min(cls.leaves)) + p[1:]
            return dataclasses.replace(cls, link_paths=tuple(paths))

        monkeypatch.setattr(decomposition, "classify", spliced)
        with pytest.raises(AssertionError, match="W vertex on a residual path"):
            decompose_acyclic(gen_random_dag_single_source(60, 0, 2), 29)

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
            assert 0 <= bt.clone_of[c] == bt.orig(c) < D.n


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
                out = decompose_strong(D, k)
                if out.kind == "witness":
                    assert leaf_count(out.witness) >= k
                    assert validate(D, out.witness) is None
                else:
                    assert validate_pd(underlying_graph(D),
                                       out.decomposition) is None
                    assert out.layers <= layer_bound(k)
                    assert out.decomposition.width <= 2 * (out.layers + 1.5) * k
                    assert out.diagnostics == ()

    def test_stripped_path_diagnostic(self):
        # a branching digraph outside the supported class, so the premises
        # of the width bounds fail and a diagnostic reports it
        D = Digraph.build(6, [(0, 4), (1, 3), (1, 4), (1, 5), (2, 1), (3, 2),
                              (4, 3)])
        out = decompose_strong(D, 2, assume_premise=True)
        assert out.kind == "decomposition"
        assert validate_pd(underlying_graph(D), out.decomposition) is None
        assert out.diagnostics == (
            "stripped path ordering boundary 3 exceeds k=2",)

    def test_beta_split_diagnostics_reported(self, monkeypatch):
        # no corpus instance breaks the split balance, so force one message
        split = decomposition.beta_split
        msg = "split balance outside case bounds: forced"

        def noisy(T, next_clone_id, diags):
            if not diags:
                diags.append(msg)
            return split(T, next_clone_id, diags)

        monkeypatch.setattr(decomposition, "beta_split", noisy)
        out = decompose_strong(gen_random_strong(30, 1, 10), 30)
        assert out.kind == "decomposition"
        assert out.diagnostics == (msg,)

    def test_n1000_decomposition_is_pinned(self):
        out = decompose_strong(gen_random_strong(1000, 3, 10), 955)
        pd = out.decomposition
        assert hashlib.sha256(pd.to_json().encode()).hexdigest() == (
            "5a4e3ff9ca695c12cc331eaaa2ef327d50678d3dc360464d6341f678ef42b86e")
        assert (pd.width, out.layers, out.diagnostics) == (999, 14, ())

    def test_multi_bag_decomposition_is_pinned(self):
        # the n = 1000 pin is one bag; this one keeps 330, so a glue run
        # placed over the wrong bags changes its hash
        out = decompose_strong(gen_random_strong(300, 1, 2), 213)
        pd = out.decomposition
        assert hashlib.sha256(pd.to_json().encode()).hexdigest() == (
            "be95d797a90db59183e148bc6591da403a2b60de8494a09e97b2d3704a7bb99e")
        assert (len(pd.bags), pd.width, out.layers, out.diagnostics) == (
            330, 294, 12, ())

    def test_misplaced_glue_run_raises(self, monkeypatch):
        # vertex 2 sits in the first child's leaf paths only; named as the
        # separator of the second child, its glue run leaves a gap
        build = decomposition.build_beta_tree

        def misplaced(D, T):
            bt = build(D, T)
            bt.root_node.children[1].separator = 2
            return bt

        monkeypatch.setattr(decomposition, "build_beta_tree", misplaced)
        with pytest.raises(AssertionError, match="vertex 2 occurs non-contiguously"):
            decompose_strong(gen_random_strong(9, 1, 10), 5)

    def test_leaf_tree_that_is_not_a_path_raises(self, monkeypatch):
        # the root's tree branches; with its children cut off it is a leaf
        # node, whose preorder is not a path
        build = decomposition.build_beta_tree

        def unsplit(D, T):
            bt = build(D, T)
            bt.root_node.children = None
            return bt

        monkeypatch.setattr(decomposition, "build_beta_tree", unsplit)
        with pytest.raises(AssertionError, match="not a path"):
            decompose_strong(gen_random_strong(9, 1, 10), 5)

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

    def test_one_vertex(self):
        # the general path: no leaf, so a witness at k <= 0 as in the
        # acyclic construction, else the bag {0} from one leaf path
        D = Digraph.build(1, [])
        for k in (-1, 0):
            out = decompose_strong(D, k)
            assert out.kind == "witness" and leaf_count(out.witness) == 0
            assert out == decompose_acyclic(D, k)
        for k in (1, 2):
            assert decompose_strong(D, k) == decomposition.DecomposeOutcome(
                decomposition=PathDecomposition((frozenset({0}),)), layers=1)

