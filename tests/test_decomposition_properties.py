"""Property tests: the near-linear decomposition helpers against their
literal quadratic definitions, kept here as the oracles."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxleaf.decomposition import (
    PathDecomposition,
    _anchor_edges,
    _components_after_removal,
    _ordering_to_pd,
    _pick_centroid,
    _spans,
    _Tree,
    tighten,
    validate_pd,
)
from maxleaf.digraph import Graph


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
    for e in G.edges:
        u, v = sorted(e)
        if not any(u in b and v in b for b in P.bags):
            return f"axiom 2: edge {{{u},{v}}} in no bag"
    for v in range(G.n):
        idx = [i for i, b in enumerate(P.bags) if v in b]
        if idx and idx != list(range(idx[0], idx[-1] + 1)):
            return f"axiom 3: vertex {v} occurs non-contiguously"
    return None


def literal_tighten(G, P):
    """Anchor per edge and result of tighten, by scanning every shared bag."""
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
    for e in G.edges:
        u, v = sorted(e)
        common = [i for i in occ[u] if i in set(occ[v])]
        edges.append((len(common), u, v, common))
    anchors = {}
    for _, u, v, common in sorted(edges):
        j = min(common, key=lambda i: (cost(u, i) + cost(v, i), i))
        anchors[u, v] = j
        commit(u, j)
        commit(v, j)
    for v in occ:
        if v not in lo:
            commit(v, occ[v][0])
    bags = tuple(frozenset(v for v in b if lo[v] <= i <= hi[v])
                 for i, b in enumerate(P.bags))
    return anchors, PathDecomposition(tuple(b for b in bags if b) or (frozenset(),))


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
    return Graph(n, frozenset(frozenset(e) for e in edges)), PathDecomposition(bags)


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
    G, P = case
    want_anchors, want = literal_tighten(G, P)
    first, last = _spans(P.bags)
    anchors, _, _ = _anchor_edges(G, first, last, len(P.bags))
    assert anchors == want_anchors
    assert tighten(G, P) == want


@settings(max_examples=600, deadline=None, derandomize=True)
@given(corrupted_decompositions())
def test_validate_pd_matches_literal_axiom_check(case):
    G, P = case
    assert validate_pd(G, P) == literal_validate_pd(G, P)


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
    got = _ordering_to_pd(order, lambda v: adj[v]).bags
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
        comps = _components_after_removal(T, u)
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
    earlier one, and the ids are shuffled."""
    n = draw(st.integers(1, 14))
    ids = draw(st.permutations(range(3 * n)))[:n]
    parent = {ids[i]: ids[draw(st.integers(0, i - 1))] for i in range(1, n)}
    return _Tree(ids[0], parent)


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
    assert [(c.root, c.parent) for c in comps] == \
        [(c.root, c.parent) for c in want_comps]
