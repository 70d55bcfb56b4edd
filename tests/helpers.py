"""Helpers shared by several test modules."""
import json
from array import array
from itertools import product

from maxleaf.branching import OutBranching, leaf_count
from maxleaf.digraph import Digraph, has_out_branching
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
