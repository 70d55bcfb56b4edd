"""Path decompositions and the constructive decomposition algorithms.

Two constructions are provided: one for acyclic single-source digraphs
(width at most 4k-6 when no out-branching with k leaves exists) and one
for strongly connected digraphs via recursive halving of an out-branching
at a leaf-weighted centroid, with the separator cloned into both halves
("beta decomposition").  Each either certifies a branching with >= k
leaves or returns a valid path decomposition of the underlying graph.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Callable, Iterable, Optional, Sequence

from .branching import OutBranching, classify, leaf_count
from .digraph import (
    Digraph,
    FormatError,
    Graph,
    has_out_branching,
    in_class_L,
    int_token,
    is_acyclic,
    is_strongly_connected,
    underlying_graph,
)
from .local_search import _bfs_1ae
from .oracles import VertexOrdering


@dataclass(frozen=True)
class PathDecomposition:
    bags: tuple[frozenset[int], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def to_json(self) -> str:
        return json.dumps({"bags": [sorted(b) for b in self.bags]})

    def to_text(self) -> str:
        return "".join(" ".join(str(v) for v in sorted(b)) + "\n" for b in self.bags)

    @staticmethod
    def from_json(text: str) -> "PathDecomposition":
        """Parse ``{"bags": [[v, ...], ...]}``; raises FormatError unless
        every bag is a list of integers."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise FormatError(f"invalid JSON: {e}") from e
        if not isinstance(doc, dict) or not isinstance(doc.get("bags"), list):
            raise FormatError('decomposition JSON must have key "bags" (a list)')
        for i, b in enumerate(doc["bags"]):
            if not isinstance(b, list) or not all(
                    isinstance(v, int) and not isinstance(v, bool) for v in b):
                raise FormatError(f"bag #{i} is not a list of integers")
        return PathDecomposition(tuple(frozenset(b) for b in doc["bags"]))

    @staticmethod
    def from_text(text: str) -> "PathDecomposition":
        """One bag per line, vertices separated by whitespace, so a blank
        line is an empty bag; raises FormatError on a token that is not an
        integer written as ``str(v)``."""
        bags = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            try:
                bags.append(frozenset(int_token(x) for x in line.split()))
            except ValueError:
                raise FormatError(f"non-integer vertex in bag {line!r}",
                                  lineno) from None
        return PathDecomposition(tuple(bags))


def _spans(bags: Sequence[frozenset[int]]) -> tuple[dict[int, int], dict[int, int]]:
    """First and last bag index of every bag vertex; the keys of the
    second map are in order of first occurrence."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for i, b in enumerate(bags):
        last.update(dict.fromkeys(b, i))
    for i in range(len(bags) - 1, -1, -1):
        first.update(dict.fromkeys(bags[i], i))
    return first, last


def validate_pd(G: Graph, P: PathDecomposition) -> str | None:
    """None when P satisfies the three path-decomposition axioms for G,
    else a message naming the first violated axiom and a witness: a bag
    vertex outside G, a vertex of G in no bag (axiom 1), an edge in no
    bag (axiom 2), then a vertex in bags that are not contiguous (axiom 3).

    A vertex is contiguous exactly when its number of bags spans its
    range from first to last bag, and an edge of two contiguous vertices
    is covered exactly when their ranges meet."""
    first, last = _spans(P.bags)
    n = G.n
    for v in last:
        if not (0 <= v < n):
            return f"bag vertex {v} outside host graph"
    if len(last) < n:
        return f"axiom 1: vertex {min(set(range(n)) - last.keys())} in no bag"
    count = Counter(chain.from_iterable(P.bags))
    split = {v for v, c in count.items() if c != last[v] - first[v] + 1}
    for u, v in G.pairs:
        if u in split or v in split:
            covered = any(u in b and v in b for b in P.bags)
        else:
            covered = first[u] <= last[v] and first[v] <= last[u]
        if not covered:
            return f"axiom 2: edge {{{u},{v}}} in no bag"
    if split:
        return f"axiom 3: vertex {min(split)} occurs non-contiguously"
    return None


def ordering_to_decomposition(G: Graph, sigma: VertexOrdering) -> PathDecomposition:
    """Path decomposition induced by a vertex ordering.

    Bag j holds v_j plus every earlier vertex that still has a neighbor
    at position j or later; width is at most the ordering's cost.
    """
    order = sigma.order
    ends = _ordering_ends(order, G.adjacency().__getitem__)
    return PathDecomposition(_sweep(zip(order, range(len(order)), ends), len(order)))


def _ordering_ends(order: Sequence[int],
                   neighbors: Callable[[int], set[int]]) -> list[int]:
    """The position of each v_j's last neighbour in order, j if earlier."""
    pos = {v: i for i, v in enumerate(order)}
    return [max(j, max((pos[w] for w in neighbors(v) if w in pos), default=j))
            for j, v in enumerate(order)]


def _sweep(spans: Iterable[tuple[int, int, int]],
           nbags: int) -> tuple[frozenset[int], ...]:
    """The nonempty bags of the spans (vertex, first bag, last bag)."""
    # each vertex has one span: it enters at its first bag, leaves after its last
    change: list[list[int]] = [[] for _ in range(nbags + 1)]
    for v, a, b in spans:
        change[a].append(v)
        change[b + 1].append(v)
    active: set[int] = set()
    bags = []
    for c in change[:nbags]:
        active.symmetric_difference_update(c)
        if active:
            bags.append(frozenset(active))
    return tuple(bags)


def _depth(spans: Iterable[tuple[int, int]], nbags: int) -> int:
    """The most of the bag intervals (a, b) that share one bag."""
    d = [0] * (nbags + 1)
    for a, b in spans:
        d[a] += 1
        d[b + 1] -= 1
    return max(accumulate(d))


def _run_spans(n: int, runs: list[tuple[int, int, int]]) -> tuple[list[int], list[int]]:
    """First and last bag of each vertex of range(n) from its runs (v, a, b)
    of bags a..b; asserts that each has a run and its runs leave no gap."""
    first, last = [-1] * n, [-1] * n
    for v, a, b in sorted(runs):
        if first[v] < 0:
            first[v] = last[v] = a
        assert a <= last[v] + 1, f"vertex {v} occurs non-contiguously"
        if b > last[v]:
            last[v] = b
    assert -1 not in first, "a vertex is in no bag"
    return first, last


def _anchor_edges(G: Graph, first: Sequence[int] | dict[int, int],
                  last: Sequence[int] | dict[int, int],
                  nbags: int) -> tuple[list[int], list[int]]:
    """The interval [lo, hi] of the bags tighten anchors the edges of
    every vertex at (-1, nbags if it has no edge).  Asserts that every
    edge has a shared bag, which covers it when its endpoints are
    contiguous.

    The shared bags of an edge are [L, R] = [max first, min last].  Edges
    are anchored in order of (R-L+1, u, v), each at the lowest bag of
    [L, R] that minimises the distance from the bag to the endpoints'
    current anchor intervals.  That sum is convex and piecewise linear in
    the bag, and its unconstrained minimisers are the interval between
    the second and third smallest endpoint of the two anchor intervals,
    so the lowest minimiser on [L, R] is the second smallest endpoint
    clamped to [L, R].  An unanchored vertex has the interval
    [-1, nbags], which covers every bag at no cost.

    An edge with one shared bag (L == R) has no choice and comes first
    in that order; extending an interval to a point commutes, so those
    edges are anchored in the pass that finds L and R, and only the
    edges with a choice are sorted."""
    n = G.n
    lo = [-1] * n
    hi = [nbags] * n
    # one int per edge with a choice, ((R-L)n + u)n + v, orders those
    # edges by (R-L+1, u, v); L rides along as the lowest digit
    keys = []
    for u, v in G.pairs:
        L = first[u]
        if first[v] > L:
            L = first[v]
        R = last[u]
        if last[v] < R:
            R = last[v]
        if L == R:
            if lo[u] < 0:
                lo[u] = hi[u] = L
            elif L < lo[u]:
                lo[u] = L
            elif L > hi[u]:
                hi[u] = L
            if lo[v] < 0:
                lo[v] = hi[v] = L
            elif L < lo[v]:
                lo[v] = L
            elif L > hi[v]:
                hi[v] = L
        else:
            assert L < R, "tighten requires a valid decomposition"
            keys.append((((R - L) * n + u) * n + v) * nbags + L)
    keys.sort()
    for key in keys:
        key, L = divmod(key, nbags)
        key, v = divmod(key, n)
        d, u = divmod(key, n)
        R = L + d
        lu, lv, hu, hv = lo[u], lo[v], hi[u], hi[v]
        j = lu if lu > lv else lv
        if hu < j:
            j = hu
        if hv < j:
            j = hv
        if j < L:
            j = L
        elif j > R:
            j = R
        if lu < 0:
            lo[u] = hi[u] = j
        elif j < lu:
            lo[u] = j
        elif j > hu:
            hi[u] = j
        if lv < 0:
            lo[v] = hi[v] = j
        elif j < lv:
            lo[v] = j
        elif j > hv:
            hi[v] = j
    return lo, hi


def tighten(G: Graph, P: PathDecomposition) -> PathDecomposition:
    """Shrink a decomposition, which validate_pd must accept, by
    restricting every vertex to the smallest contiguous bag interval that
    still covers its incident edges.  Each edge is anchored at one bag
    containing both endpoints; edges with few shared bags are anchored
    first, later edges pick the shared bag that extends the endpoint
    intervals least.  Width never increases.  Runs in O(m + c log c) plus
    the size of P, where c is the number of edges with more than one
    shared bag: only those are sorted, so a one-bag decomposition sorts
    nothing."""
    assert validate_pd(G, P) is None, "tighten requires a valid decomposition"
    return _tighten(G, *_spans(P.bags), len(P.bags))


def _tighten(G: Graph, first: Sequence[int] | dict[int, int],
             last: Sequence[int] | dict[int, int], nbags: int) -> PathDecomposition:
    """tighten's core: nbags bags, each vertex v of G in bags first[v]..last[v]."""
    lo, hi = _anchor_edges(G, first, last, nbags)
    # v keeps bags lo[v]..hi[v], its first bag alone when it has no edge;
    # that range lies inside its original one, so a sweep rebuilds the bags
    spans = ((v, a, b) if a >= 0 else (v, first[v], first[v])
             for v, a, b in zip(range(G.n), lo, hi))
    out = PathDecomposition(_sweep(spans, nbags) or (frozenset(),))
    assert validate_pd(G, out) is None
    return out


@dataclass(frozen=True)
class DecomposeOutcome:
    """Either a witness branching with >= k leaves or a decomposition."""

    witness: Optional[OutBranching] = None
    decomposition: Optional[PathDecomposition] = None
    layers: int = 0
    diagnostics: tuple[str, ...] = ()

    @property
    def kind(self) -> str:
        return "witness" if self.witness is not None else "decomposition"


def decompose_acyclic(D: Digraph, k: int,
                      T: Optional[OutBranching] = None) -> DecomposeOutcome:
    """Witness a branching with >= k leaves or decompose UN(D).

    Requires D acyclic with a single vertex of in-degree zero.  The
    decomposition unions the leaf, branch and path-head vertices of a
    locally optimal branching into every bag of a width-1 decomposition
    of the remaining link paths; width is at most 4k-6 when the local
    optimum has fewer than k leaves.  That branching is T when given (a
    caller that already holds it), else improve_to_1ae(bfs_branching(D,
    source)).  When the link paths take at most one bag, that bag holds
    all of V(D), which covers every edge and is already tight, so it is
    returned without building UN(D).
    """
    if not is_acyclic(D):
        raise ValueError("digraph is not acyclic")
    sources = [v for v in range(D.n) if D.in_degree(v) == 0]
    if len(sources) != 1:
        raise ValueError(f"expected a single source, found {len(sources)}")
    root = sources[0]

    if T is None:
        T = _bfs_1ae(D, root)
    if leaf_count(T) >= k:
        return DecomposeOutcome(witness=T)

    if leaf_count(T) == 1:
        # T is a Hamiltonian path; acyclicity plus local optimality leave
        # no room for extra arcs, so decompose along the path itself
        order = [root]
        ch = T.children()
        while ch[order[-1]]:
            order.append(ch[order[-1]][0])
        assert set(D.arcs) == set(zip(order, order[1:]))
        bags_ = tuple(frozenset(p) for p in zip(order, order[1:])) or (
            frozenset({root}),)
        return DecomposeOutcome(decomposition=PathDecomposition(bags_),
                                layers=1)

    cls = classify(T)
    W = frozenset(chain(cls.leaves, cls.branches, cls.first_vertices))
    # the residual (link paths less their first vertex) takes a bag per
    # path edge, a lone vertex one bag; W is one run over all the bags
    runs: list[tuple[int, int, int]] = []
    nbags = 0
    for path in (p[1:] for p in cls.link_paths if len(p) > 1):
        assert W.isdisjoint(path), "a W vertex on a residual path"
        m = max(len(path) - 1, 1)
        runs.extend((u, nbags + max(i - 1, 0), nbags + min(i, m - 1))
                    for i, u in enumerate(path))
        nbags += m
    nbags = max(nbags, 1)
    runs.extend((w, 0, nbags - 1) for w in W)
    spans = _run_spans(D.n, runs)  # every vertex has a run, with no gap
    pd = (PathDecomposition((frozenset(range(D.n)),)) if nbags == 1
          else _tighten(underlying_graph(D), *spans, nbags))

    diags: list[str] = []
    # the bound is for k >= 2: at k = 1 only the one-vertex digraph, with
    # no leaf (see leaf_count) and width 0, gets here
    if pd.width > max(4 * k - 6, 0):
        diags.append(f"width {pd.width} exceeds 4k-6 = {4 * k - 6}")
    return DecomposeOutcome(decomposition=pd, layers=1,
                            diagnostics=tuple(diags))


# ---------------------------------------------------------------------------
# beta decomposition of an out-branching


@dataclass
class _Tree:
    """Mutable out-tree over arbitrary (possibly cloned) vertex ids,
    with its vertices in a depth-first preorder: root first, and each
    vertex's subtree one slice that the vertex starts."""

    root: int
    parent: dict[int, int]  # every vertex except root
    order: list[int]  # a preorder of the tree, root first

    def vertices(self) -> set[int]:
        return {self.root} | set(self.parent)

    def children(self) -> dict[int, list[int]]:
        ch: dict[int, list[int]] = {v: [] for v in self.vertices()}
        for v, p in self.parent.items():
            ch[p].append(v)
        return ch

    def leaf_weight(self) -> int:
        """Number of vertices with no children (root included if alone):
        every vertex but the distinct parents."""
        return 1 + len(self.parent) - len(set(self.parent.values()))


@dataclass
class BetaNode:
    tree: _Tree
    layer: int
    separator: Optional[int] = None  # original id of the split vertex
    children: tuple["BetaNode", "BetaNode"] | None = None


@dataclass
class BetaTree:
    root_node: BetaNode
    clone_of: dict[int, int]  # clone id -> the original vertex it copies
    diagnostics: list[str]    # split balances outside the case bounds

    def orig(self, v: int) -> int:
        return self.clone_of.get(v, v)

    @property
    def layers(self) -> int:
        def depth(node: BetaNode) -> int:
            if node.children is None:
                return node.layer
            return max(depth(node.children[0]), depth(node.children[1]))
        return depth(self.root_node)

    def leaf_nodes(self) -> list[BetaNode]:
        out: list[BetaNode] = []

        def walk(node: BetaNode) -> None:
            if node.children is None:
                out.append(node)
            else:
                walk(node.children[0])
                walk(node.children[1])

        walk(self.root_node)
        return out


def _pick_centroid(T: _Tree) -> tuple[int, list[tuple[int, int, list[int]]]]:
    """Separator vertex whose removal leaves components of original leaf
    weight at most half the total; among qualifying vertices the one with
    the most balanced split (then lowest id) is taken.  Returns it with
    the components of T - u, each as (leaf count, least vertex, vertices
    in preorder with the component's root first).

    T's preorder and one children map built from it serve every
    candidate.  Subtree sizes and leaf counts, summed in reverse
    preorder, give its components: one per child, plus the rest of the
    tree above it, where p(u) becomes a leaf when u is its only child.  A
    child's component is a slice of the preorder, and the rest is the
    preorder less u's slice."""
    root, par, order = T.root, T.parent, T.order
    ch: dict[int, list[int]] = {}
    for u in order[1:]:
        ch.setdefault(par[u], []).append(u)
    size = dict.fromkeys(order, 1)
    leaves = {u: 0 if u in ch else 1 for u in order}
    for u in order[:0:-1]:
        p = par[u]
        size[p] += size[u]
        leaves[p] += leaves[u]
    total = leaves[root]
    n = len(order)
    # undirected degree >= 2 avoids pendant separators (always possible
    # for trees with >= 2 leaves)
    candidates = [u for u in ch if u != root or len(ch[u]) >= 2] or order

    # a component of original leaf weight above half the total, i.e.
    # above total // 2, disqualifies u; the part above u counts p(u) as a
    # leaf, for the key, only when u is its only child
    half = total // 2
    best_key = None
    for u in candidates:
        l = sz = 0
        if u != root:
            rest = total - leaves[u]
            if rest > half:
                continue
            l = rest + (len(ch[par[u]]) == 1)
            sz = n - size[u]
        kids = ch.get(u)
        if kids:
            w = max(map(leaves.__getitem__, kids))
            if w > half:
                continue
            if w > l:
                l = w
            w = max(map(size.__getitem__, kids))
            if w > sz:
                sz = w
        key = (l, sz, u)
        if best_key is None or key < best_key:
            best_key = key
    assert best_key is not None, "no qualifying separator vertex"
    u = best_key[2]

    i = order.index(u)
    end = i + size[u]
    comps = []
    j = i + 1
    while j < end:
        part = order[j:j + size[order[j]]]
        comps.append((leaves[part[0]], min(part), part))
        j += len(part)
    if u != root:
        part = order[:i] + order[end:]
        comps.append((total - leaves[u] + (len(ch[par[u]]) == 1), min(part), part))
    return u, comps


def beta_split(T: _Tree, next_clone_id: int,
               diags: list[str]) -> tuple[_Tree, _Tree, int, int]:
    """Split T at a leaf-weighted centroid into two out-trees.

    The separator v is duplicated: the original stays in the first tree,
    the clone roots (or joins) the second.  Returns (first, second, v,
    clone_id).  Requires at least two leaves.  The components of T - v
    go to the two sides in order of leaf count, descending, then least
    vertex, both of which the centroid pass already has, and each side
    and its preorder are built from its components' preorder slices: the
    copy's block, the copy then its child slices, goes right after p(v)
    in the part above v, or starts the side.
    """
    lam = T.leaf_weight()
    assert lam >= 2, "beta_split requires at least two leaves"
    v, comps = _pick_centroid(T)
    comps.sort(key=lambda c: (-c[0], c[1]))
    s = len(comps)
    assert s >= 2, "separator must split the tree"
    lcounts = [c[0] for c in comps]

    prefix = 0
    j = s
    for i, l in enumerate(lcounts):
        prefix += l
        if 2 * prefix >= lam + 2:
            j = i + 1
            break
    case_a = 4 * lcounts[j - 1] <= lam + 2 if j <= s else True
    p = j if case_a else 1
    if p >= s:
        p = s - 1  # keep both sides nonempty (small-lambda corner)

    if lam >= 7:
        pre = sum(lcounts[:p])
        suf = sum(lcounts[p:])
        if case_a:
            ok = (2 * pre >= lam + 2 and 4 * pre <= 3 * (lam + 2)
                  and 4 * suf >= lam - 6 and 2 * suf <= lam)
        else:
            ok = (4 * pre >= lam + 2 and 2 * pre <= lam + 2
                  and 2 * suf >= lam - 2 and 4 * suf <= 3 * lam + 2)
        if not ok:
            diags.append(
                f"split balance outside case bounds: lam={lam} case_a={case_a} "
                f"prefix={pre} suffix={suf}")

    par = T.parent

    def assemble(side_comps: list[tuple[int, int, list[int]]], copy_id: int) -> _Tree:
        parent: dict[int, int] = {}
        block = [copy_id]
        above: list[int] = []
        for _, _, part in side_comps:
            if part[0] == T.root:
                # the part above v: keep the root, hang the copy under p(v)
                above = part
                parent[copy_id] = par[v]
            else:
                parent[part[0]] = copy_id  # a child subtree of v
                block += part
            parent.update({u: par[u] for u in part[1:]})
        if not above:
            return _Tree(copy_id, parent, block)
        i = above.index(par[v]) + 1
        return _Tree(T.root, parent, above[:i] + block + above[i:])

    clone = next_clone_id
    first = assemble(comps[:p], v)
    second = assemble(comps[p:], clone)
    return first, second, v, clone


def build_beta_tree(D: Digraph, T: OutBranching) -> BetaTree:
    """Recursively split T down to single-leaf paths."""
    ch = T.children()
    order = []
    stack = [T.root]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(ch[u])
    root_tree = _Tree(T.root, {v: T.parent[v] for v in order[1:]}, order)
    clone_of: dict[int, int] = {}
    next_id = [D.n]
    diags: list[str] = []

    def recurse(tree: _Tree, layer: int) -> BetaNode:
        if len(tree.parent) <= 1 or tree.leaf_weight() <= 1:
            return BetaNode(tree, layer)
        first, second, v, clone = beta_split(tree, next_id[0], diags)
        clone_of[clone] = clone_of.get(v, v)
        next_id[0] += 1
        node = BetaNode(tree, layer, clone_of[clone])
        node.children = (recurse(first, layer + 1), recurse(second, layer + 1))
        return node

    bt = BetaTree(recurse(root_tree, 1), clone_of, diags)

    # original ids across leaf paths partition V(D); clones are the extras
    seen: set[int] = set()
    for node in bt.leaf_nodes():
        for u in node.tree.order:
            if u < D.n:
                assert u not in seen, f"vertex {u} in two leaf paths"
                seen.add(u)
    assert seen == set(range(D.n)), "leaf paths do not cover the digraph"
    return bt


def _path_order(tree: _Tree) -> list[int]:
    """Root-to-end vertex order of a single-leaf tree (a directed path):
    its preorder, in which each vertex's parent comes just before it."""
    order = tree.order
    assert list(map(tree.parent.__getitem__, order[1:])) == order[:-1], \
        "leaf node of the split tree is not a path"
    return order


def layer_bound(k: int) -> int:
    return 2 + math.ceil(math.log(max(k, 2)) / math.log(4 / 3))


def decompose_strong(D: Digraph, k: int, assume_premise: bool = False,
                     T: Optional[OutBranching] = None) -> DecomposeOutcome:
    """Witness a branching with >= k leaves or decompose UN(D).

    Applies to strongly connected digraphs and to class L, where the
    paper bounds the width; with assume_premise, to any digraph with an
    out-branching, where the decomposition is valid but may be wide.  The
    decomposition recursively splits a locally optimal branching (T when
    given, else improve_to_1ae(bfs_branching(D, min root))) and decomposes
    each resulting path along its own order.  A split's glue, its
    separator plus the cross-arc neighbor set (at most 2k vertices when
    the premises hold), is one run over the bags of the paths below it.
    """
    if D.n == 0:
        raise ValueError("empty digraph")
    if not is_strongly_connected(D):
        ok, _ = has_out_branching(D)
        if not ok:
            raise ValueError("digraph has no out-branching")
        # the paper's width bound needs the in-neighbor test; the beta
        # splits are a valid decomposition of any digraph with an
        # out-branching, so a caller that needs only validity (the DP of
        # decide_k_dmlob) bypasses it
        if not assume_premise and not in_class_L(D):
            raise ValueError(
                "digraph is neither strongly connected nor in the "
                "supported out-branching class")
    if T is None:
        _, roots = has_out_branching(D)
        T = _bfs_1ae(D, min(roots))
    if leaf_count(T) >= k:
        return DecomposeOutcome(witness=T)

    cls = classify(T)
    W_full = set(cls.leaves) | set(cls.branches) | set(cls.first_vertices)
    diags: list[str] = []
    if len(W_full) >= 4 * k:
        diags.append(f"|W| = {len(W_full)} not below 4k = {4 * k}")

    bt = build_beta_tree(D, T)
    t = bt.layers
    if t > layer_bound(k):
        diags.append(f"layer count {t} exceeds {layer_bound(k)}")
    diags.extend(bt.diagnostics)

    runs: list[tuple[int, int, int]] = []
    orig = bt.clone_of.get

    def leaf_runs(node: BetaNode, start: int) -> int:
        path = _path_order(node.tree)
        order = list(map(orig, path, path))
        W_local = W_full.intersection(order)
        path_arcs = set(zip(order, order[1:]))
        # adjacency of the stripped digraph R: the arcs within the path
        # less those off it that touch W_local
        adj: dict[int, set[int]] = {u: set() for u in order}
        for a in order:
            for b in D.out_adj[a]:
                if b in adj and (a not in W_local and b not in W_local
                                 or (a, b) in path_arcs):
                    adj[a].add(b)
                    adj[b].add(a)
        ends = _ordering_ends(order, adj.__getitem__)
        m = len(order)
        # the ordering's boundary (the most vertices up to a position with
        # a neighbour past it) is the width of the decomposition it induces
        boundary = _depth(enumerate(ends), m) - 1
        if boundary > k:
            diags.append(
                f"stripped path ordering boundary {boundary} exceeds k={k}")
        # the leaf path's bags are those bags with W_local added to each
        spans = [(0, m - 1) if u in W_local else (i, e)
                 for i, (u, e) in enumerate(zip(order, ends))]
        width = _depth(spans, m) - 1
        if width >= 5 * k:
            diags.append(f"leaf path width {width} not below 5k = {5 * k}")
        runs.extend((u, start + a, start + b) for u, (a, b) in zip(order, spans))
        return start + m

    def combine(node: BetaNode, start: int) -> int:
        """Add the runs of the leaf paths below node, from bag start on,
        then node's glue as one run over their bags; return the bag after
        them.  A split's glue is its separator plus Y, the vertices on one
        side with an in-neighbour on the other; its diagnostic follows
        those of its children."""
        if node.children is None:
            return leaf_runs(node, start)
        v = node.separator
        sides = [set(map(orig, c.tree.order, c.tree.order)) for c in node.children]
        # Y is symmetric in the two sides: walk the arcs of the smaller one
        small, large = sorted(sides, key=len)
        Y: set[int] = set()
        for u in small:
            Y.update(w for w in D.out_adj[u] if w in large)
            if not large.isdisjoint(D.in_adj[u]):
                Y.add(u)
        end = combine(node.children[1], combine(node.children[0], start))
        runs.extend((w, start, end - 1) for w in Y | {v})
        if len(Y - {v}) > 2 * k:
            diags.append(
                f"cross-neighbor set size {len(Y)} exceeds 2k = {2 * k}")
        return end

    nbags = combine(bt.root_node, 0)
    pd = _tighten(underlying_graph(D), *_run_spans(D.n, runs), nbags)
    if pd.width > 2 * (t + 1.5) * k:
        diags.append(
            f"final width {pd.width} exceeds 2(t+1.5)k = {2 * (t + 1.5) * k}")
    return DecomposeOutcome(decomposition=pd, layers=t, diagnostics=tuple(diags))
