"""Helpers shared by several test modules."""
import json
from array import array
from itertools import chain, product
from typing import Callable, Optional, Sequence

from maxleaf.branching import OutBranching, classify, leaf_count
from maxleaf.decomposition import (
    BetaNode,
    BetaTree,
    DecomposeOutcome,
    PathDecomposition,
    _path_order,
    _Tree,
    build_beta_tree,
    layer_bound,
    tighten,
)
from maxleaf.digraph import (
    Digraph,
    has_out_branching,
    in_class_L,
    is_acyclic,
    is_strongly_connected,
    underlying_graph,
)
from maxleaf.local_search import _bfs_1ae
from maxleaf.oracles import VertexOrdering


def state_space_cap(bag_size: int) -> int:
    """Regression guard on DP table sizes: Bell(bag_size) * 4**bag_size."""
    bell = [[1]]
    for i in range(1, bag_size + 1):
        row = [bell[-1][-1]]
        for x in bell[-1]:
            row.append(row[-1] + x)
        bell.append(row)
    b = bell[bag_size][0] if bag_size > 0 else 1
    return b * 4 ** bag_size


def naive_max_leaf_branching(D):
    """Reference oracle: enumerate every parent assignment.

    Each non-root vertex picks a parent among its in-neighbors; the
    assignment is kept iff the arcs form an out-branching.  Exponential;
    only for cross-checking on tiny or sparse instances.
    """
    best, best_T = 0, None
    ok, roots = has_out_branching(D)
    if not ok:
        return 0, None
    for root in sorted(roots):
        others = [v for v in range(D.n) if v != root]
        choices = [D.in_adj[v] for v in others]
        if any(not c for c in choices):
            continue
        for combo in product(*choices):
            parent = [-1] * D.n
            for v, p in zip(others, combo):
                parent[v] = p
            T = OutBranching(D.n, root, tuple(parent))
            if any(d < 0 for d in T.depths()):
                continue
            k = leaf_count(T)
            if k > best:
                best, best_T = k, T
    return best, best_T


def table_vertex_separation(G):
    """Reference oracle: the vertex separation DP over a table of every
    set, f(S) = max(|boundary(S)|, min over v in S of f(S - v)), where
    the boundary S & nu[full - S] holds the vertices of S with a neighbor
    outside S, nu[X] being the union of the neighborhoods of X.  O(n * 2^n)
    time, about 5 * 2^n bytes.  The order is read back from full: at each
    S, the least v with f(S - v) <= f(S) reaches f(S).
    """
    n = G.n
    if n == 0:
        return 0, VertexOrdering((), 0)
    nbr = [0] * n
    for u, v in G.pairs:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u

    full = (1 << n) - 1
    nu = array("I", [0])
    for v in range(n):  # the sets whose highest vertex is v
        nv = nbr[v]
        nu.extend(array("I", (x | nv for x in nu)))
    f = bytearray(1 << n)
    for S in range(1, 1 << n):
        b = (S & nu[full ^ S]).bit_count()
        best, s = n, S
        while s and best > b:  # once some f(S - v) <= b, f(S) = b
            low = s & -s
            s ^= low
            if (x := f[S ^ low]) < best:
                best = x
        f[S] = best if best > b else b

    order: list[int] = []
    S = full
    while S:
        v = 0
        while not (S >> v & 1 and f[S ^ 1 << v] <= f[S]):
            v += 1
        order.append(v)
        S ^= 1 << v
    order.reverse()
    return f[full], VertexOrdering(tuple(order), f[full])


def serialize_json(D) -> str:
    """A digraph as the JSON document parse reads: arcs sorted."""
    return json.dumps({"n": D.n, "arcs": [list(a) for a in sorted(D.arcs)]})


# one invalid decomposition per check that tighten and the DP share with
# validate_pd, on a digraph with a 2-cycle: the edge {1,2} in no bag, a
# vertex outside the graph, and vertex 1 in bags 0 and 2 only
CHECKED_DIGRAPH = Digraph.build(4, [(0, 1), (1, 0), (1, 2), (2, 3)])
INVALID_DECOMPOSITIONS = {
    "axiom 2": (frozenset({0, 1}), frozenset({2, 3})),
    "bag vertex 7 outside": (frozenset({0, 1, 2}), frozenset({2, 3, 7})),
    "axiom 3": (frozenset({0, 1, 2}), frozenset({2, 3}), frozenset({1})),
}


# Reference for the library's beta split from carried preorders: the
# split on parent dicts, which builds the children map once for the
# centroid and again for the components, sorts the components by
# leaf_weight() and vertices(), and gives each tree a preorder of its own.


def tree_in_preorder(root: int, parent: dict[int, int],
                     key: Optional[Callable[[int], int]] = None) -> _Tree:
    """The _Tree of root and parent with a depth-first preorder that
    visits each vertex's children in order of key (by default, of id)."""
    ch: dict[int, list[int]] = {}
    for v in sorted(parent, key=key):
        ch.setdefault(parent[v], []).append(v)
    order = []
    stack = [root]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(reversed(ch.get(u, ())))
    return _Tree(root, parent, order)


def is_preorder(order: Sequence[int], root: int, parent: dict[int, int]) -> bool:
    """Whether order lists the tree of root and parent, each vertex once,
    root first and every vertex's subtree contiguous: each vertex after
    the root hangs below a vertex on the path from the root to the vertex
    before it."""
    if sorted(order) != sorted({root, *parent}) or order[0] != root:
        return False
    path = [root]
    for v in order[1:]:
        while path and path[-1] != parent[v]:
            path.pop()
        if not path:
            return False
        path.append(v)
    return True


def components_after_removal(T: _Tree, v: int) -> list[_Tree]:
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
        comps.append(tree_in_preorder(c, sub_parent))
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
        comps.append(tree_in_preorder(T.root, rest_parent))
    return comps


def dict_pick_centroid(T: _Tree) -> tuple[int, list[_Tree]]:
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
    return u, components_after_removal(T, u)


def dict_beta_split(T: _Tree, next_clone_id: int,
               diags: list[str]) -> tuple[_Tree, _Tree, int, int]:
    """Split T at a leaf-weighted centroid into two out-trees.

    The separator v is duplicated: the original stays in the first tree,
    the clone roots (or joins) the second.  Returns (first, second, v,
    clone_id).  Requires at least two leaves.
    """
    lam = T.leaf_weight()
    assert lam >= 2, "beta_split requires at least two leaves"
    v, comps = dict_pick_centroid(T)

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
        return tree_in_preorder(root, parent)

    first = assemble(first_comps, v)
    second = assemble(second_comps, clone)
    return first, second, v, clone


def dict_beta_tree(D, T) -> BetaTree:
    """build_beta_tree's recursion over dict_beta_split."""
    clone_of: dict[int, int] = {}
    next_id = [D.n]
    diags: list[str] = []

    def recurse(tree: _Tree, layer: int) -> BetaNode:
        if tree.leaf_weight() <= 1 or len(tree.vertices()) <= 2:
            return BetaNode(tree, layer)
        first, second, v, clone = dict_beta_split(tree, next_id[0], diags)
        clone_of[clone] = clone_of.get(v, v)
        next_id[0] += 1
        node = BetaNode(tree, layer, clone_of[clone])
        node.children = (recurse(first, layer + 1), recurse(second, layer + 1))
        return node

    root = tree_in_preorder(T.root, {v: T.parent[v] for v in range(T.n) if v != T.root})
    return BetaTree(recurse(root, 1), clone_of, diags)


# Reference for the run form of the two constructions: decompose_acyclic
# and decompose_strong as they were when every bag was built with all of
# its glue (W in every bag; each split's separator and Y in every bag of
# the leaf paths below it) and tighten read the spans back from the bags.


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


def glued_acyclic(D: Digraph, k: int,
                  T: Optional[OutBranching] = None) -> DecomposeOutcome:
    """decompose_acyclic with W unioned into every bag of the residual
    paths, then tighten on those bags."""
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
    # residual: maximal link paths with their first vertex removed
    residual_paths = [p[1:] for p in cls.link_paths if len(p) > 1]

    bags: list[frozenset[int]] = []
    for path in residual_paths:
        if len(path) == 1:
            bags.append(frozenset({path[0]}) | W)
        else:
            for a, b in zip(path, path[1:]):
                bags.append(frozenset({a, b}) | W)
    if not bags:
        bags.append(W)
    pd = tighten(underlying_graph(D), PathDecomposition(tuple(bags)))

    diags: list[str] = []
    # the bound is for k >= 2: at k = 1 only the one-vertex digraph, with
    # no leaf (see leaf_count) and width 0, gets here
    if pd.width > max(4 * k - 6, 0):
        diags.append(f"width {pd.width} exceeds 4k-6 = {4 * k - 6}")
    return DecomposeOutcome(decomposition=pd, layers=1,
                            diagnostics=tuple(diags))


def glued_strong(D: Digraph, k: int, assume_premise: bool = False,
                 T: Optional[OutBranching] = None) -> DecomposeOutcome:
    """decompose_strong with the inherited glue unioned into every bag of
    each leaf path, then tighten on those bags."""
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

    def pd_for_leaf(node: BetaNode) -> PathDecomposition:
        order = [bt.orig(u) for u in _path_order(node.tree)]
        on_path = set(order)
        W_local = on_path & W_full
        path_arcs = set(zip(order, order[1:]))
        # adjacency of the stripped digraph R
        adj: dict[int, set[int]] = {u: set() for u in order}
        for a in order:
            for b in D.out_adj[a]:
                if b not in on_path:
                    continue
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
        bags = tuple(b | W_local for b in pd.bags)
        out = PathDecomposition(bags)
        if out.width >= 5 * k:
            diags.append(f"leaf path width {out.width} not below 5k = {5 * k}")
        return out

    combined: list[frozenset[int]] = []

    def combine(node: BetaNode, inherited: frozenset[int]) -> None:
        """Append the bags of the leaf paths below node, each unioned with
        inherited, the glue of the splits above node.  A split's glue is
        its separator plus Y, the vertices on one side with an in-neighbour
        on the other; its diagnostic follows those of its children."""
        if node.children is None:
            combined.extend(b | inherited for b in pd_for_leaf(node).bags)
            return
        v = node.separator
        sides = [{bt.orig(u) for u in c.tree.vertices()} for c in node.children]
        # Y is symmetric in the two sides: walk the arcs of the smaller one
        small, large = sorted(sides, key=len)
        Y: set[int] = set()
        for u in small:
            Y.update(w for w in D.out_adj[u] if w in large)
            if not large.isdisjoint(D.in_adj[u]):
                Y.add(u)
        inherited = inherited | Y | {v}
        combine(node.children[0], inherited)
        combine(node.children[1], inherited)
        if len(Y - {v}) > 2 * k:
            diags.append(
                f"cross-neighbor set size {len(Y)} exceeds 2k = {2 * k}")

    combine(bt.root_node, frozenset())
    pd = tighten(underlying_graph(D), PathDecomposition(tuple(combined)))
    if pd.width > 2 * (t + 1.5) * k:
        diags.append(
            f"final width {pd.width} exceeds 2(t+1.5)k = {2 * (t + 1.5) * k}")
    return DecomposeOutcome(decomposition=pd, layers=t, diagnostics=tuple(diags))
