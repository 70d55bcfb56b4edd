"""Exact ground truth at desk scale.

Maximum-leaf out-branching values via branch and bound (plus a naive
enumerate-all-parent-maps reference used to cross-check it), maximum-leaf
out-tree values, and exact pathwidth via the vertex separation DP.
"""
from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass
from itertools import product
from typing import Optional

from .branching import OutBranching, leaf_count, validate
from .digraph import (
    Digraph,
    Graph,
    has_out_branching,
    reachable_subdigraph,
    strong_components,
)


class BudgetExhausted(Exception):
    """Raised when the oracle exceeds its wall-clock budget.

    Carries the best value/witness found so far as an inexact lower bound.
    """

    def __init__(self, best_value: int, witness: Optional[OutBranching]):
        self.best_value = best_value
        self.witness = witness
        super().__init__(f"time budget exhausted; lower bound {best_value}")


@dataclass(frozen=True)
class VertexOrdering:
    """Vertex elimination ordering with its max prefix-boundary size."""

    order: tuple[int, ...]
    cost: int


def naive_max_leaf_branching(D: Digraph) -> tuple[int, Optional[OutBranching]]:
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


def exact_max_leaf_branching(
    D: Digraph,
    time_budget_ms: float = 60_000.0,
    initial_lower_bound: tuple[int, Optional[OutBranching]] | None = None,
) -> tuple[int, Optional[OutBranching]]:
    """Exact maximum-leaf out-branching value with a validating witness.

    Branch and bound over parent choices: at each node pick an unattached
    frontier vertex (fewest remaining parent candidates first) and branch
    on taking or permanently excluding one candidate arc into it.
    Vertices whose only possible parent is already in the tree are
    attached by unit propagation.  The admissible bound combines the
    vertices already forced internal, a greedy parent-capacity cover of
    the unattached set, and the depth of the layered reachability
    frontier.  Returns (0, None) when D has no out-branching.  Raises
    BudgetExhausted past the wall-clock budget.
    """
    ok, roots = has_out_branching(D)
    if not ok or D.n == 0:
        return 0, None
    if D.n == 1:
        return 0, OutBranching(1, 0, (-1,))

    deadline = time.monotonic() + time_budget_ms / 1000.0
    best = -1
    best_T: Optional[OutBranching] = None
    if initial_lower_bound is not None:
        best, best_T = initial_lower_bound

    n = D.n
    FULL = (1 << n) - 1
    # avail_out[u] / avail_in[v]: the arcs out of u / into v that the
    # search has not excluded; an exclusion clears one bit in each
    avail_out = [0] * n
    avail_in = [0] * n
    for a, b in D.arcs:
        avail_out[a] |= 1 << b
        avail_in[b] |= 1 << a
    idx = {1 << v: v for v in range(n)}
    INFEASIBLE = -(10 ** 9)
    # parent[v] is written when v is attached; v is attached at most once
    # on a search path, so a spanning node reads only its own path's entries
    parent = [-1] * n

    def propagate(attached: int, internal: int) -> Optional[tuple[int, int]]:
        """Attach vertices with a unique surviving parent candidate; None
        when some vertex has no candidate left."""
        changed = True
        while changed:
            changed = False
            um = FULL ^ attached
            while um:
                low = um & -um
                um ^= low
                avail = avail_in[idx[low]]
                if avail == 0:
                    return None
                if avail & (avail - 1) == 0 and avail & attached:
                    parent[idx[low]] = idx[avail]
                    attached |= low
                    internal |= avail
                    changed = True
        return attached, internal

    def bound(attached: int, internal: int) -> int:
        """Upper bound on the leaves of a spanning completion; the state
        does not span (search tests that first)."""
        U = FULL ^ attached
        demand = U.bit_count()
        im = internal
        while im and demand > 0:
            low = im & -im
            im ^= low
            demand -= (avail_out[idx[low]] & U).bit_count()
        extra = 0
        if demand > 0:
            caps = []
            om = FULL ^ internal
            while om:
                low = om & -om
                om ^= low
                c = (avail_out[idx[low]] & U).bit_count()
                if c:
                    caps.append(c)
            caps.sort(reverse=True)
            for c in caps:
                if demand <= 0:
                    break
                demand -= c
                extra += 1
            if demand > 0:
                return INFEASIBLE  # cannot span
        # layered reachability: layer d > 1 forces an internal vertex
        # in every earlier layer, all of them currently unattached
        frontier, rem, layers = attached, U, 0
        while rem:
            nxt = 0
            fm = frontier
            while fm:
                low = fm & -fm
                fm ^= low
                nxt |= avail_out[idx[low]]
            nxt &= rem
            if nxt == 0:
                return INFEASIBLE  # unreachable vertex
            layers += 1
            rem &= ~nxt
            frontier = nxt
        extra = max(extra, layers - 1)
        return n - max(internal.bit_count() + extra, 1)

    def search(attached: int, internal: int) -> None:
        """Take branches recurse; each exclude branch continues the loop."""
        nonlocal best, best_T
        bans = []
        while True:
            if time.monotonic() > deadline:
                raise BudgetExhausted(best, best_T)
            state = propagate(attached, internal)
            if state is None:
                break
            attached, internal = state
            if attached == FULL:
                k = n - max(internal.bit_count(), 1)
                if k > best:
                    best = k
                    best_T = OutBranching(n, root, tuple(parent))
                break
            if bound(attached, internal) <= best:
                break
            # branch vertex: the least frontier vertex with fewest parent
            # candidates; the bound's first layer shows the frontier is nonempty
            vb, cand, fewest = 0, 0, n + 1
            um = FULL ^ attached
            while um:
                low = um & -um
                um ^= low
                avail = avail_in[idx[low]]
                if avail & attached and avail.bit_count() < fewest:
                    vb, cand, fewest = low, avail & attached, avail.bit_count()
            c = cand & internal or cand  # an internal parent first
            ub = c & -c
            v, u = idx[vb], idx[ub]
            parent[v] = u
            search(attached | vb, internal | ub)
            avail_in[v] ^= ub
            avail_out[u] ^= vb
            bans.append((u, v))
        for u, v in bans:
            avail_in[v] |= 1 << u
            avail_out[u] |= 1 << v

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + n)  # one frame per take, at most n - 1
    try:
        for root in sorted(roots):
            parent[:] = [-1] * n
            search(1 << root, 0)
    finally:
        sys.setrecursionlimit(limit)

    if best < 0:
        return 0, None
    assert best_T is not None and validate(D, best_T) is None
    return best, best_T


def exact_max_leaf_tree(D: Digraph, time_budget_ms: float = 60_000.0) -> int:
    """Exact maximum leaf count over out-trees of D (need not span).

    Uses the identity: the optimum equals the max over v of the spanning
    optimum on the subdigraph reachable from v, solved for one v per
    strong component (all vertices of a component reach the same set).
    The time budget bounds the whole call: each solve gets what is left.
    """
    deadline = time.monotonic() + time_budget_ms / 1000.0
    comp = strong_components(D).component_id
    seen: set[int] = set()
    best = 0
    for v in range(D.n):
        if comp[v] in seen:
            continue
        seen.add(comp[v])
        sub, _ = reachable_subdigraph(D, v)
        val, _ = exact_max_leaf_branching(
            sub, (deadline - time.monotonic()) * 1000.0)
        best = max(best, val)
    return best


def exact_vertex_separation(G: Graph) -> tuple[int, VertexOrdering]:
    """Exact vertex separation by subset DP; n <= 20.

    f(S) = max(|boundary(S)|, min over v in S of f(S - v)), where the
    boundary S & nu[full - S] holds the vertices of S with a neighbor
    outside S, nu[X] being the union of the neighborhoods of X.
    O(n * 2^n) time, about 5 * 2^n bytes.  The order is read back from
    full: at each S, the least v with f(S - v) <= f(S) reaches f(S).
    """
    n = G.n
    if n > 20:
        raise ValueError(f"exact vertex separation limited to n <= 20, got {n}")
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
