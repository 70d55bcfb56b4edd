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
from itertools import chain
from typing import Callable, Optional, Sequence

from .branching import OutBranching, classify, leaf_count
from .digraph import (
    Digraph,
    FormatError,
    Graph,
    has_out_branching,
    in_class_L,
    is_acyclic,
    is_strongly_connected,
    underlying_graph,
)
from .local_search import bfs_branching, improve_to_1ae
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
        return "\n".join(" ".join(str(v) for v in sorted(b)) for b in self.bags) + "\n"

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
        """One bag per non-blank line, vertices separated by whitespace;
        raises FormatError on a token that is not an integer."""
        bags = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if line.strip():
                try:
                    bags.append(frozenset(int(x) for x in line.split()))
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
    else a message naming the first violated axiom and a witness.

    A vertex is contiguous exactly when its number of bags spans its
    range from first to last bag, and an edge of two contiguous vertices
    is covered exactly when their ranges meet."""
    n = G.n
    first, last = _spans(P.bags)
    for v in last:
        if not (0 <= v < n):
            return f"bag vertex {v} outside host graph"
    if len(last) < n:
        return f"axiom 1: vertex {min(set(range(n)) - last.keys())} in no bag"
    count = Counter(chain.from_iterable(P.bags))
    split = {v for v, c in count.items() if c != last[v] - first[v] + 1}
    for e in G.edges:
        u, v = sorted(e)
        if u in split or v in split:
            covered = any(u in b and v in b for b in P.bags)
        else:
            covered = first[u] <= last[v] and first[v] <= last[u]
        if not covered:
            return f"axiom 2: edge {{{u},{v}}} in no bag"
    if split:
        v = min(v for v in range(n) if v in split)
        return f"axiom 3: vertex {v} occurs non-contiguously"
    return None


def ordering_to_decomposition(G: Graph, sigma: VertexOrdering) -> PathDecomposition:
    """Path decomposition induced by a vertex ordering.

    Bag j holds v_j plus every earlier vertex that still has a neighbor
    at position j or later; width is at most the ordering's cost.
    """
    adj = G.adjacency()
    return _ordering_to_pd(list(sigma.order), lambda v: adj[v])


def _ordering_to_pd(order: Sequence[int],
                    neighbors: Callable[[int], set[int]]) -> PathDecomposition:
    # v_j sits in bags j..last_j, last_j being the position of its last
    # neighbour (at least j); a sweep drops it again before bag last_j + 1
    pos = {v: i for i, v in enumerate(order)}
    leaving: list[list[int]] = [[] for _ in range(len(order) + 1)]
    active: set[int] = set()
    bags = []
    for j, vj in enumerate(order):
        active.difference_update(leaving[j])
        active.add(vj)
        bags.append(frozenset(active))
        last = max((pos[w] for w in neighbors(vj) if w in pos), default=j)
        leaving[max(last, j) + 1].append(vj)
    return PathDecomposition(tuple(bags))


def _anchor_edges(G: Graph, first: dict[int, int], last: dict[int, int],
                  nbags: int
                  ) -> tuple[dict[tuple[int, int], int], list[int], list[int]]:
    """The bag tighten anchors each edge {u,v} (u < v) at, and the
    interval [lo, hi] of anchors of every vertex (-1, nbags if none).

    The shared bags of an edge are [L, R] = [max first, min last].  Edges
    are anchored in order of (R-L+1, u, v), each at the lowest bag of
    [L, R] that minimises the distance from the bag to the endpoints'
    current anchor intervals.  That sum is convex and piecewise linear in
    the bag, and its unconstrained minimisers are the interval between
    the second and third smallest endpoint of the two anchor intervals,
    so the lowest minimiser on [L, R] is the second smallest endpoint
    clamped to [L, R].  An unanchored vertex has the interval
    [-1, nbags], which covers every bag at no cost."""
    edges = []
    for e in G.edges:
        u, v = sorted(e)
        L = max(first[u], first[v])
        R = min(last[u], last[v])
        edges.append((R - L + 1, u, v, L, R))
    edges.sort()
    lo = [-1] * G.n
    hi = [nbags] * G.n
    anchors: dict[tuple[int, int], int] = {}
    for _, u, v, L, R in edges:
        j = min(max(min(max(lo[u], lo[v]), hi[u], hi[v]), L), R)
        anchors[u, v] = j
        for x in (u, v):
            if lo[x] < 0:
                lo[x] = hi[x] = j
            elif j < lo[x]:
                lo[x] = j
            elif j > hi[x]:
                hi[x] = j
    return anchors, lo, hi


def tighten(G: Graph, P: PathDecomposition) -> PathDecomposition:
    """Shrink a valid decomposition by restricting every vertex to the
    smallest contiguous bag interval that still covers its incident
    edges.  Each edge is anchored at one bag containing both endpoints;
    edges with few shared bags are anchored first, later edges pick the
    shared bag that extends the endpoint intervals least.  Width never
    increases.  Runs in O(m log m) plus the size of P."""
    assert validate_pd(G, P) is None, "tighten requires a valid decomposition"
    nbags = len(P.bags)
    first, last = _spans(P.bags)
    _, lo, hi = _anchor_edges(G, first, last, nbags)
    # v keeps bags lo[v]..hi[v], its first bag alone when it has no edge;
    # that range lies inside its original one, so a sweep rebuilds the bags
    enter: list[list[int]] = [[] for _ in range(nbags + 1)]
    leave: list[list[int]] = [[] for _ in range(nbags + 1)]
    for v in range(G.n):
        if lo[v] < 0:
            lo[v] = hi[v] = first[v]
        enter[lo[v]].append(v)
        leave[hi[v] + 1].append(v)
    active: set[int] = set()
    bags = []
    for i in range(nbags):
        active.difference_update(leave[i])
        active.update(enter[i])
        if active:
            bags.append(frozenset(active))
    out = PathDecomposition(tuple(bags) or (frozenset(),))
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


def decompose_acyclic(D: Digraph, k: int) -> DecomposeOutcome:
    """Witness a branching with >= k leaves or decompose UN(D).

    Requires D acyclic with a single vertex of in-degree zero.  The
    decomposition unions the leaf, branch and path-head vertices of a
    locally optimal branching into every bag of a width-1 decomposition
    of the remaining link paths; width is at most 4k-6 when the local
    optimum has fewer than k leaves.
    """
    if not is_acyclic(D):
        raise ValueError("digraph is not acyclic")
    sources = [v for v in range(D.n) if D.in_degree(v) == 0]
    if len(sources) != 1:
        raise ValueError(f"expected a single source, found {len(sources)}")
    root = sources[0]

    T = improve_to_1ae(D, bfs_branching(D, root))
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
    W = set(cls.leaves) | set(cls.branches) | set(cls.first_vertices)
    # residual: maximal link paths with their first vertex removed
    residual_paths = [p[1:] for p in cls.link_paths if len(p) > 1]

    bags: list[frozenset[int]] = []
    for path in residual_paths:
        if len(path) == 1:
            bags.append(frozenset({path[0]}) | frozenset(W))
        else:
            for a, b in zip(path, path[1:]):
                bags.append(frozenset({a, b}) | frozenset(W))
    if not bags:
        bags.append(frozenset(W))
    pd = tighten(underlying_graph(D), PathDecomposition(tuple(bags)))

    diags: list[str] = []
    if pd.width > 4 * k - 6:
        diags.append(f"width {pd.width} exceeds 4k-6 = {4 * k - 6}")
    return DecomposeOutcome(decomposition=pd, layers=1,
                            diagnostics=tuple(diags))


# ---------------------------------------------------------------------------
# beta decomposition of an out-branching


@dataclass
class _Tree:
    """Mutable out-tree over arbitrary (possibly cloned) vertex ids."""

    root: int
    parent: dict[int, int]  # every vertex except root

    def vertices(self) -> set[int]:
        return {self.root} | set(self.parent)

    def children(self) -> dict[int, list[int]]:
        ch: dict[int, list[int]] = {v: [] for v in self.vertices()}
        for v, p in self.parent.items():
            ch[p].append(v)
        return ch

    def leaf_weight(self) -> int:
        """Number of vertices with no children (root included if alone)."""
        ch = self.children()
        return sum(1 for v in ch if not ch[v])


@dataclass
class BetaNode:
    tree: _Tree
    layer: int
    separator: Optional[tuple[int, int]] = None  # (v, clone of v)
    children: tuple["BetaNode", "BetaNode"] | None = None


@dataclass
class BetaTree:
    root_node: BetaNode
    clone_of: dict[int, int]  # clone id -> id it copies (possibly a clone)
    n_original: int

    def orig(self, v: int) -> int:
        while v in self.clone_of:
            v = self.clone_of[v]
        return v

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


def _components_after_removal(T: _Tree, v: int) -> list[_Tree]:
    """Components of T - v, each as an out-tree."""
    ch = T.children()
    comps: list[_Tree] = []
    for c in ch[v]:
        sub_parent: dict[int, int] = {}
        stack = [c]
        while stack:
            u = stack.pop()
            for w in ch[u]:
                sub_parent[w] = u
                stack.append(w)
        comps.append(_Tree(c, sub_parent))
    if v != T.root:
        below = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in ch[u]:
                below.add(w)
                stack.append(w)
        rest_parent = {u: p for u, p in T.parent.items()
                       if u not in below and p not in below}
        comps.append(_Tree(T.root, rest_parent))
    return comps


def _pick_centroid(T: _Tree) -> tuple[int, list[_Tree]]:
    """Separator vertex whose removal leaves components of original leaf
    weight at most half the total; among qualifying vertices the one with
    the most balanced split (then lowest id) is taken.

    Subtree sizes and leaf counts from one post-order pass give every
    candidate's components: one per child, plus the rest of the tree
    above it, where p(u) becomes a leaf when u is its only child."""
    ch = T.children()
    order = [T.root]
    for u in order:
        order.extend(ch[u])
    size: dict[int, int] = {}
    leaves: dict[int, int] = {}
    for u in reversed(order):
        size[u] = 1 + sum(size[c] for c in ch[u])
        leaves[u] = sum(leaves[c] for c in ch[u]) if ch[u] else 1
    total = leaves[T.root]
    n = len(order)
    # undirected degree >= 2 avoids pendant separators (always possible
    # for trees with >= 2 leaves)
    candidates = [u for u in order if len(ch[u]) + (u != T.root) >= 2] or order

    best_key = None
    for u in candidates:
        # (original leaf weight, leaf count, size) of each component
        comps = [(leaves[c], leaves[c], size[c]) for c in ch[u]]
        if u != T.root:
            rest = total - leaves[u]
            comps.append((rest, rest + (len(ch[T.parent[u]]) == 1), n - size[u]))
        if any(2 * w > total for w, _, _ in comps):
            continue
        key = (max((l for _, l, _ in comps), default=0),
               max((sz for _, _, sz in comps), default=0), u)
        if best_key is None or key < best_key:
            best_key = key
    assert best_key is not None, "no qualifying separator vertex"
    u = best_key[2]
    return u, _components_after_removal(T, u)


def beta_split(T: _Tree, next_clone_id: int,
               diags: list[str]) -> tuple[_Tree, _Tree, int, int]:
    """Split T at a leaf-weighted centroid into two out-trees.

    The separator v is duplicated: the original stays in the first tree,
    the clone roots (or joins) the second.  Returns (first, second, v,
    clone_id).  Requires at least two leaves.
    """
    lam = T.leaf_weight()
    assert lam >= 2, "beta_split requires at least two leaves"
    v, comps = _pick_centroid(T)

    def comp_key(c: _Tree):
        return (-c.leaf_weight(), min(c.vertices()))

    comps.sort(key=comp_key)
    s = len(comps)
    assert s >= 2, "separator must split the tree"
    lcounts = [c.leaf_weight() for c in comps]

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

    clone = next_clone_id
    first_comps = comps[:p]
    second_comps = comps[p:]

    def assemble(side_comps: list[_Tree], copy_id: int) -> _Tree:
        has_rest = any(c.root == T.root and v != T.root for c in side_comps)
        parent: dict[int, int] = {}
        for c in side_comps:
            parent.update(c.parent)
        if has_rest:
            # side containing the part above v: keep root, hang copy under p(v)
            parent[copy_id] = T.parent[v]
            root = T.root
        else:
            root = copy_id
        for c in side_comps:
            if not (c.root == T.root and v != T.root):
                parent[c.root] = copy_id  # child subtree of v
        return _Tree(root, parent)

    first = assemble(first_comps, v)
    second = assemble(second_comps, clone)
    return first, second, v, clone


def build_beta_tree(D: Digraph, T: OutBranching) -> BetaTree:
    """Recursively split T down to single-leaf paths."""
    root_tree = _Tree(T.root, {v: T.parent[v] for v in range(T.n) if v != T.root})
    clone_of: dict[int, int] = {}
    next_id = [D.n]
    diags: list[str] = []

    def recurse(tree: _Tree, layer: int) -> BetaNode:
        if tree.leaf_weight() <= 1 or len(tree.vertices()) <= 2:
            return BetaNode(tree, layer)
        first, second, v, clone = beta_split(tree, next_id[0], diags)
        clone_of[clone] = v
        next_id[0] += 1
        node = BetaNode(tree, layer, (v, clone))
        node.children = (recurse(first, layer + 1), recurse(second, layer + 1))
        return node

    bt = BetaTree(recurse(root_tree, 1), clone_of, D.n)

    # original ids across leaf paths partition V(D); clones are the extras
    seen: set[int] = set()
    for node in bt.leaf_nodes():
        for u in node.tree.vertices():
            if u < D.n:
                assert u not in seen, f"vertex {u} in two leaf paths"
                seen.add(u)
    assert seen == set(range(D.n)), "leaf paths do not cover the digraph"
    return bt


def _path_order(tree: _Tree) -> list[int]:
    """Root-to-end vertex order of a single-leaf tree (a directed path)."""
    ch = tree.children()
    order = [tree.root]
    cur = tree.root
    while ch[cur]:
        assert len(ch[cur]) == 1, "leaf node of the split tree is not a path"
        cur = ch[cur][0]
        order.append(cur)
    assert len(order) == len(tree.vertices())
    return order


def layer_bound(k: int) -> int:
    return 2 + math.ceil(math.log(max(k, 2)) / math.log(4 / 3))


def decompose_strong(D: Digraph, k: int,
                     assume_premise: bool = False) -> DecomposeOutcome:
    """Witness a branching with >= k leaves or decompose UN(D).

    Applies to strongly connected digraphs, and more generally to
    digraphs with an out-branching where out-tree and out-branching leaf
    optima coincide.  The decomposition recursively splits a locally
    optimal branching, decomposes each resulting directed path along its
    own order, and merges children by unioning the cross-arc neighbor
    set (at most 2k vertices when the machinery's premises hold) into
    every bag.
    """
    if D.n == 0:
        raise ValueError("empty digraph")
    if not is_strongly_connected(D):
        ok, _ = has_out_branching(D)
        if not ok:
            raise ValueError("digraph has no out-branching")
        # the in-neighbor test is sufficient, not necessary; callers that
        # know the tree/branching leaf optima coincide (e.g. reachable
        # subdigraphs) may bypass it.  Only width guarantees rely on it.
        if not assume_premise and not in_class_L(D):
            raise ValueError(
                "digraph is neither strongly connected nor in the "
                "supported out-branching class")
    if D.n == 1:
        return DecomposeOutcome(
            decomposition=PathDecomposition((frozenset({0}),)), layers=1)

    _, roots = has_out_branching(D)
    T = improve_to_1ae(D, bfs_branching(D, min(roots)))
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

    def by_orig(ids) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for x in ids:
            out.setdefault(bt.orig(x), []).append(x)
        return out

    def pd_for_leaf(node: BetaNode) -> PathDecomposition:
        order = _path_order(node.tree)
        W_local = {u for u in order if bt.orig(u) in W_full}
        path_arcs = set(zip(order, order[1:]))
        ids = by_orig(order)
        # adjacency of the stripped digraph R
        adj: dict[int, set[int]] = {u: set() for u in order}
        for a in order:
            for w in D.out_adj[bt.orig(a)]:
                for b in ids.get(w, ()):
                    touches_w = a in W_local or b in W_local
                    if touches_w and (a, b) not in path_arcs:
                        continue
                    adj[a].add(b)
                    adj[b].add(a)
        pd = _ordering_to_pd(order, lambda u: adj[u])
        # the ordering's boundary (the most vertices up to a position with
        # a neighbour past it) is the width of the decomposition it induces
        boundary = pd.width
        if boundary > k:
            diags.append(
                f"stripped path ordering boundary {boundary} exceeds k={k}")
        bags = tuple(b | frozenset(W_local) for b in pd.bags)
        out = PathDecomposition(bags)
        if out.width >= 5 * k:
            diags.append(f"leaf path width {out.width} not below 5k = {5 * k}")
        return out

    def combine(node: BetaNode) -> PathDecomposition:
        if node.children is None:
            return pd_for_leaf(node)
        left = combine(node.children[0])
        right = combine(node.children[1])
        v, clone = node.separator
        # rename the clone back to v throughout the second half
        right_bags = [b - {clone} | {v} if clone in b else b
                      for b in right.bags]
        lverts = by_orig(set().union(*left.bags))
        rverts = by_orig(set().union(*right_bags))
        # Y: every id on one side whose original vertex has an in-neighbour
        # among the other side's; walk the arcs of the smaller side
        small, large = sorted((lverts, rverts), key=len)
        Y: set[int] = set()
        for o, here in small.items():
            for w in D.out_adj[o]:
                Y.update(large.get(w, ()))
            if any(w in large for w in D.in_adj[o]):
                Y.update(here)
        if len(Y - {v}) > 2 * k:
            diags.append(
                f"cross-neighbor set size {len(Y)} exceeds 2k = {2 * k}")
        glue = frozenset(Y | {v})
        bags = tuple(b | glue for b in list(left.bags) + right_bags)
        return PathDecomposition(bags)

    pd = tighten(underlying_graph(D), combine(bt.root_node))
    if pd.width > 2 * (t + 1.5) * k:
        diags.append(
            f"final width {pd.width} exceeds 2(t+1.5)k = {2 * (t + 1.5) * k}")
    return DecomposeOutcome(decomposition=pd, layers=t, diagnostics=tuple(diags))
