"""Property tests: the near-linear decomposition helpers against their
literal quadratic definitions, kept here as the oracles."""
import random

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from helpers import (
    components_after_removal,
    dict_beta_tree,
    glued_acyclic,
    glued_strong,
    is_preorder,
    tree_in_preorder,
)
from maxleaf.branching import leaf_count
from maxleaf.decomposition import (
    PathDecomposition,
    _anchor_edges,
    _ordering_ends,
    _pick_centroid,
    _spans,
    _sweep,
    _Tree,
    build_beta_tree,
    decompose_acyclic,
    decompose_strong,
    tighten,
    validate_pd,
)
from maxleaf.digraph import Digraph, Graph, has_out_branching, underlying_graph
from maxleaf.generators import gen_random_dag_single_source, gen_random_strong
from maxleaf.local_search import _bfs_1ae, bfs_branching, dfs_branching


def literal_validate_pd(G, P):
    covered = set()
    for b in P.bags:
        for v in b:
            if not (0 <= v < G.n):
                return f"bag vertex {v} outside host graph"
        covered |= b
    missing = set(range(G.n)) - covered
    if missing:
        return f"axiom 1: vertex {min(missing)} in no bag"
    for u, v in G.pairs:
        if not any(u in b and v in b for b in P.bags):
            return f"axiom 2: edge {{{u},{v}}} in no bag"
    for v in range(G.n):
        idx = [i for i, b in enumerate(P.bags) if v in b]
        if idx and idx != list(range(idx[0], idx[-1] + 1)):
            return f"axiom 3: vertex {v} occurs non-contiguously"
    return None


def literal_tighten(G, P):
    """The interval [lo, hi] of the bags the edges of every vertex are
    anchored at (-1, len(P.bags) if it has no edge), and the result of
    tighten, by scanning every shared bag."""
    occ = {}
    for i, b in enumerate(P.bags):
        for v in b:
            occ.setdefault(v, []).append(i)
    lo, hi = {}, {}

    def cost(v, j):
        if v not in lo:
            return 0
        return max(0, lo[v] - j) + max(0, j - hi[v])

    def commit(v, j):
        lo[v] = min(lo.get(v, j), j)
        hi[v] = max(hi.get(v, j), j)

    edges = []
    for u, v in G.pairs:
        common = [i for i in occ[u] if i in set(occ[v])]
        edges.append((len(common), u, v, common))
    for _, u, v, common in sorted(edges):
        j = min(common, key=lambda i: (cost(u, i) + cost(v, i), i))
        commit(u, j)
        commit(v, j)
    intervals = ([lo.get(v, -1) for v in range(G.n)],
                 [hi.get(v, len(P.bags)) for v in range(G.n)])
    for v in occ:
        if v not in lo:
            commit(v, occ[v][0])
    bags = tuple(frozenset(v for v in b if lo[v] <= i <= hi[v])
                 for i, b in enumerate(P.bags))
    return intervals, PathDecomposition(tuple(b for b in bags if b) or (frozenset(),))


def assert_tightens_as_literal(G, P):
    want_intervals, want = literal_tighten(G, P)
    first, last = _spans(P.bags)
    assert _anchor_edges(G, first, last, len(P.bags)) == want_intervals
    assert tighten(G, P) == want


@st.composite
def valid_decompositions(draw):
    """A graph and a valid decomposition of it: each vertex gets a bag
    interval, and edges join only vertices whose intervals meet."""
    n = draw(st.integers(1, 10))
    nbags = draw(st.integers(1, 8))
    spans = []
    for _ in range(n):
        a = draw(st.integers(0, nbags - 1))
        spans.append((a, draw(st.integers(a, nbags - 1))))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
             if max(spans[u][0], spans[v][0]) <= min(spans[u][1], spans[v][1])]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    bags = tuple(frozenset(v for v in range(n) if spans[v][0] <= i <= spans[v][1])
                 for i in range(nbags))
    return Graph(n, tuple(edges)), PathDecomposition(bags)


@st.composite
def corrupted_decompositions(draw):
    """A valid decomposition after a few random bag edits: vertices
    dropped or added (some outside the graph), bags deleted, copied or
    swapped."""
    G, P = draw(valid_decompositions())
    bags = [set(b) for b in P.bags]
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["drop", "add", "delete", "copy", "swap"]))
        i = draw(st.integers(0, len(bags) - 1)) if bags else None
        if op == "drop" and bags and bags[i]:
            bags[i].discard(draw(st.sampled_from(sorted(bags[i]))))
        elif op == "add" and bags:
            bags[i].add(draw(st.integers(0, G.n + 2)))
        elif op == "delete" and bags:
            del bags[i]
        elif op == "copy" and bags:
            bags.insert(draw(st.integers(0, len(bags))), set(bags[i]))
        elif op == "swap" and bags:
            j = draw(st.integers(0, len(bags) - 1))
            bags[i], bags[j] = bags[j], bags[i]
    return G, PathDecomposition(tuple(frozenset(b) for b in bags))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(valid_decompositions())
def test_tighten_anchors_each_edge_at_the_literal_minimiser(case):
    assert_tightens_as_literal(*case)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(corrupted_decompositions())
def test_validate_pd_matches_literal_axiom_check(case):
    G, P = case
    assert validate_pd(G, P) == literal_validate_pd(G, P)


def ordering_bags(order, neighbors):
    """The bags an ordering induces, swept from each vertex's last bag."""
    ends = _ordering_ends(order, neighbors)
    return _sweep(zip(order, range(len(order)), ends), len(order))


def literal_ordering_bags(order, neighbors):
    pos = {v: i for i, v in enumerate(order)}
    bags = []
    for j, vj in enumerate(order):
        bag = {vj}
        for i in range(j):
            vi = order[i]
            if any(pos[w] >= j for w in neighbors(vi) if w in pos):
                bag.add(vi)
        bags.append(frozenset(bag))
    return tuple(bags)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n),
    st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
    st.permutations(range(n)),
    st.integers(0, n))))
def test_ordering_sweep_matches_literal_bags(case):
    # the ordering may cover only some vertices, as a leaf path does
    n, pairs, perm, cut = case
    adj = {v: set() for v in range(n)}
    for u, v in pairs:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    order = list(perm[:cut])
    got = ordering_bags(order, lambda v: adj[v])
    assert got == literal_ordering_bags(order, lambda v: adj[v])


def literal_pick_centroid(T):
    ch = T.children()
    orig_leaves = {u for u in ch if not ch[u]}
    total = len(orig_leaves)
    verts = T.vertices()
    deg = {u: len(ch[u]) + (0 if u == T.root else 1) for u in verts}
    candidates = [u for u in verts if deg[u] >= 2] or sorted(verts)
    best_key = None
    best = None
    for u in sorted(candidates):
        comps = components_after_removal(T, u)
        weights = [sum(1 for x in c.vertices() if x in orig_leaves) for c in comps]
        if any(2 * w > total for w in weights):
            continue
        max_l = max((c.leaf_weight() for c in comps), default=0)
        max_sz = max((len(c.vertices()) for c in comps), default=0)
        key = (max_l, max_sz, u)
        if best_key is None or key < best_key:
            best_key = key
            best = (u, comps)
    assert best is not None, "no qualifying separator vertex"
    return best


@st.composite
def out_trees(draw):
    """A random out-tree on arbitrary ids: vertex i > 0 hangs below an
    earlier one, and the ids are shuffled.  Its preorder visits each
    vertex's children in a random order."""
    n = draw(st.integers(1, 14))
    ids = draw(st.permutations(range(3 * n)))[:n]
    parent = {ids[i]: ids[draw(st.integers(0, i - 1))] for i in range(1, n)}
    rank = dict(zip(ids, draw(st.permutations(range(n)))))
    return tree_in_preorder(ids[0], parent, rank.__getitem__)


def centroid_components(T):
    """_pick_centroid's separator and its components as (leaf count,
    least vertex, vertex set), sorted."""
    u, comps = _pick_centroid(T)
    return u, sorted((l, least, frozenset(part)) for l, least, part in comps)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(out_trees())
def test_pick_centroid_matches_per_candidate_components(T):
    try:
        want_u, want_comps = literal_pick_centroid(T)
    except AssertionError:
        with pytest.raises(AssertionError):
            _pick_centroid(T)
        return
    u, comps = _pick_centroid(T)
    assert u == want_u
    # each component as (leaf count, least vertex, preorder, root first)
    got = []
    for leaf_count, least, part in comps:
        tree = _Tree(part[0], {w: T.parent[w] for w in part[1:]}, part)
        assert (leaf_count, least) == (tree.leaf_weight(), min(tree.vertices()))
        assert is_preorder(part, tree.root, tree.parent)
        got.append((tree.root, tree.parent))
    # the roots differ, so the sort never compares two parent dicts
    assert sorted(got) == sorted((c.root, c.parent) for c in want_comps)
    # T's preorder, drawn at random, changes neither the separator nor
    # the components
    assert centroid_components(T) == centroid_components(
        tree_in_preorder(T.root, T.parent))


@st.composite
def random_out_branchings(draw):
    """A random strong digraph with n <= 40 and a BFS or DFS out-branching
    of it from a random root, with neighbours in a random order."""
    n = draw(st.integers(2, 40))
    D = gen_random_strong(n, draw(st.integers(0, 10**6)),
                          draw(st.sampled_from([3, 10, 20, 40])))
    build = draw(st.sampled_from([bfs_branching, dfs_branching]))
    rng = random.Random(draw(st.integers(0, 10**6)))
    return D, build(D, draw(st.integers(0, n - 1)), rng)


def split_tree(node):
    """Layer, separator and, at a leaf node, the path tree of every node
    of a split tree, in preorder; asserts that each node's tree carries a
    preorder of itself."""
    out = []

    def walk(node):
        assert is_preorder(node.tree.order, node.tree.root, node.tree.parent)
        tree = (node.tree.root, node.tree.parent) if node.children is None else None
        out.append((node.layer, node.separator, tree))
        for c in node.children or ():
            walk(c)

    walk(node)
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(random_out_branchings())
def test_beta_tree_matches_dict_split(case):
    D, T = case
    got, want = build_beta_tree(D, T), dict_beta_tree(D, T)
    assert split_tree(got.root_node) == split_tree(want.root_node)
    assert got.clone_of == want.clone_of
    assert got.layers == want.layers
    assert got.diagnostics == want.diagnostics


@settings(max_examples=300, deadline=None, derandomize=True)
@given(out_trees())
def test_leaf_weight_counts_childless_vertices(T):
    ch = T.children()
    assert T.leaf_weight() == sum(1 for v in ch if not ch[v])


@st.composite
def digraphs_with_2_cycles(draw):
    """A digraph in which each adjacent pair is joined one way, the other
    way or both; at least one pair is joined both ways when n >= 2."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    arcs = set()
    for i, (u, v) in enumerate(chosen):
        way = 2 if i == 0 else draw(st.integers(0, 2))
        if way != 1:
            arcs.add((u, v))
        if way != 0:
            arcs.add((v, u))
    return Digraph.build(n, arcs)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(digraphs_with_2_cycles())
def test_underlying_graph_pairs_are_the_sorted_edges(D):
    G = underlying_graph(D)
    assert G.n == D.n
    assert all(u < v for u, v in G.pairs)
    assert len(set(G.pairs)) == len(G.pairs) == G.m
    assert set(G.pairs) == {(min(a), max(a)) for a in D.arcs}


@st.composite
def decompositions_of_digraphs(draw):
    """A digraph with 2-cycles and a decomposition of its underlying
    graph: one an order induces, padded with a vertex set in every bag,
    then perhaps corrupted by a few vertices dropped or added."""
    D = draw(digraphs_with_2_cycles())
    adj = underlying_graph(D).adjacency()
    order = draw(st.permutations(range(D.n)))
    pad = frozenset(draw(st.sets(st.integers(0, D.n - 1))))
    bags = [set(b | pad) for b in ordering_bags(order, adj.__getitem__)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(bags) - 1))
        if draw(st.booleans()) and bags[i]:
            bags[i].discard(draw(st.sampled_from(sorted(bags[i]))))
        else:
            bags[i].add(draw(st.integers(0, D.n)))
    return D, PathDecomposition(tuple(frozenset(b) for b in bags))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(decompositions_of_digraphs())
def test_underlying_graph_matches_the_literal_oracles(case):
    """validate_pd and tighten on underlying_graph(D), whose 2-cycles are
    single edges, against their literal definitions."""
    D, P = case
    G = underlying_graph(D)
    err = validate_pd(G, P)
    assert err == literal_validate_pd(G, P)
    if err is None:
        assert_tightens_as_literal(G, P)
    else:
        with pytest.raises(AssertionError):
            tighten(G, P)


@st.composite
def bag_sequences(draw):
    """A graph and a sequence of bags, each vertex in a run of bags or in
    none, then perhaps edited: a vertex dropped from a bag (which can make
    it non-contiguous or leave it in no bag), or a vertex outside the
    graph added.  Most edges join vertices that share a bag, the others
    any two vertices.  One bag is drawn often, and every edge of a one-bag
    input has one shared bag (L == R)."""
    n = draw(st.integers(1, 8))
    nbags = draw(st.sampled_from([1, 1, 2, 3, 5]))
    spans = []
    for _ in range(n):
        a = draw(st.integers(0, nbags - 1))
        spans.append((a, draw(st.integers(a, nbags - 1))))
    bags = [{v for v in range(n) if spans[v][0] <= i <= spans[v][1]}
            for i in range(nbags)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, nbags - 1))
        if draw(st.booleans()):
            if bags[i]:
                bags[i].discard(draw(st.sampled_from(sorted(bags[i]))))
        else:
            bags[i].add(draw(st.integers(n, n + 2)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    shared = [(u, v) for u, v in pairs if any(u in b and v in b for b in bags)]
    edges = set(draw(st.lists(st.sampled_from(shared), unique=True))) if shared else set()
    if pairs and draw(st.integers(0, 3)) == 0:
        edges.add(draw(st.sampled_from(pairs)))
    return Graph(n, tuple(sorted(edges))), PathDecomposition(tuple(map(frozenset, bags)))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(bag_sequences())
def test_tighten_checks_its_input_as_validate_pd(case):
    """tighten checks its input with validate_pd: it raises exactly when
    validate_pd reports a violation, and otherwise tightens as the
    literal definition does."""
    G, P = case
    if validate_pd(G, P) is not None:
        with pytest.raises(AssertionError):
            tighten(G, P)
    else:
        assert_tightens_as_literal(G, P)


def test_bag_sequences_draw_edges_with_one_shared_bag():
    """The strategy above reaches valid inputs, of several bags, with an
    edge whose endpoints share one bag and an edge whose share several."""
    def shared_bags(G, P):
        first, last = _spans(P.bags)
        return {min(last[u], last[v]) - max(first[u], first[v]) for u, v in G.pairs}

    def wanted(case):
        G, P = case
        return (len(P.bags) > 1 and validate_pd(G, P) is None
                and {0, 1} <= shared_bags(G, P))

    # generate only: a shrunk example shows nothing more
    assert wanted(find(bag_sequences(), wanted, settings=settings(
        derandomize=True, database=None, phases=[Phase.generate])))


@st.composite
def construction_inputs(draw):
    """A digraph with n <= 40 and a k from 2 up to one above the leaves of
    the branching the construction starts from, so that decompositions of
    several bags are drawn.  The digraph is strong, in class L (a strong
    part with an arc into each vertex of another), a single-source DAG, or
    that DAG with back arcs, in neither class (decompose_strong takes it
    with assume_premise)."""
    kind = draw(st.sampled_from(["strong", "class L", "dag", "other"]))
    n = draw(st.integers(2, 40))
    seed = draw(st.integers(0, 10**6))
    pct = draw(st.sampled_from([1, 2, 3, 5, 10, 20]))
    rng = random.Random(seed)
    if kind == "strong":
        D = gen_random_strong(n, seed, pct)
    elif kind == "class L":
        a = draw(st.integers(1, n - 1))
        parts = [gen_random_strong(m, seed, pct).arcs if m > 1 else ()
                 for m in (a, n - a)]
        arcs = set(parts[0]) | {(u + a, v + a) for u, v in parts[1]}
        arcs |= {(rng.randrange(a), q) for q in range(a, n)}
        D = Digraph.build(n, arcs)
    else:
        D = gen_random_dag_single_source(n, seed, pct)
        if kind == "other":
            D = Digraph.build(n, set(D.arcs) | {
                (v, u) for v in range(n) for u in range(1, v)
                if rng.random() < pct / 100})
    _, roots = has_out_branching(D)
    ell = leaf_count(_bfs_1ae(D, min(roots)))
    # k counts down from ell + 1, the most common draw
    return kind, D, max(ell + 1 - draw(st.integers(0, ell)), 2)


def glued_and_runs(kind, D, k):
    if kind == "dag":
        return glued_acyclic(D, k), decompose_acyclic(D, k)
    return (glued_strong(D, k, assume_premise=True),
            decompose_strong(D, k, assume_premise=True))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(construction_inputs())
def test_runs_give_the_glued_decomposition(case):
    """Both constructions, each glue set one run of bags, against the
    literal glued bags and tighten on them: the same decomposition,
    layers and diagnostics."""
    want, got = glued_and_runs(*case)
    assert got == want


@pytest.mark.parametrize("kind", ["strong", "class L", "dag", "other"])
def test_construction_inputs_draw_multi_bag_decompositions(kind):
    def wanted(case):
        if case[0] != kind:
            return False
        pd = glued_and_runs(*case)[1].decomposition
        return pd is not None and len(pd.bags) > 1

    # generate only: a shrunk example shows nothing more
    assert wanted(find(construction_inputs(), wanted, settings=settings(
        derandomize=True, database=None, phases=[Phase.generate])))


def test_construction_inputs_draw_one_bag_acyclic_decompositions():
    """One bag is returned before UN(D) is built, so the glued test above
    needs such cases.  The Hamiltonian-path branch gives bags of two
    vertices, so a bag of more than two comes from the W-glue."""
    def wanted(case):
        if case[0] != "dag":
            return False
        pd = glued_and_runs(*case)[1].decomposition
        return pd is not None and len(pd.bags) == 1 and len(pd.bags[0]) > 2

    # generate only: a shrunk example shows nothing more
    assert wanted(find(construction_inputs(), wanted, settings=settings(
        derandomize=True, database=None, phases=[Phase.generate])))
