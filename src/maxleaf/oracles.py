"""Exact ground truth at desk scale.

Maximum-leaf out-branching values via the k-leaf out-tree search,
maximum-leaf out-tree values, and exact pathwidth via the vertex
separation DP.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Optional

from .branching import OutBranching, leaf_count, validate
from .digraph import Digraph, Graph, has_out_branching, reachable_subdigraphs


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


def exact_max_leaf_branching(
    D: Digraph,
    time_budget_ms: float = 60_000.0,
    initial_lower_bound: tuple[int, Optional[OutBranching]] | None = None,
) -> tuple[int, Optional[OutBranching]]:
    """Exact maximum-leaf out-branching value with a validating witness.

    The k-leaf out-tree search of Kneis, Langer & Rossmanith (ISAAC 2008),
    asked for k = best + 1 from each root of the source component in turn
    until it answers no; a no at k is a no at every larger k.  Each yes
    tree is extended to an out-branching with at least its leaves, which
    is validated and sets best.  Returns (0, None) when D has no
    out-branching, as it then has no roots.  Raises BudgetExhausted past
    the wall-clock budget, carrying the best witness so far.
    """
    _, roots = has_out_branching(D)
    n = D.n
    if n == 1:
        return 0, OutBranching(1, 0, (-1,))

    deadline = time.monotonic() + time_budget_ms / 1000.0
    best, best_T = initial_lower_bound or (0, None)
    out = [0] * n
    for a, b in D.arcs:
        out[a] |= 1 << b
    nodes = 0

    def grow(tree: int, inner: int, free: int, leaves: int) -> Optional[int]:
        """The internal vertices of an out-tree with k leaves that extends
        the one on `tree` with internal vertices `inner`, whose leaves in
        `free` may still become internal; None if there is none.  The
        internal branch recurses, and the leaf branch continues the loop."""
        nonlocal nodes
        while True:
            if nodes & 255 == 0 and time.monotonic() > deadline:
                raise BudgetExhausted(best, best_T)
            nodes += 1
            if leaves >= k:
                return inner
            # only vertices the free leaves reach outside the tree can join
            reach, todo = 0, free
            while todo:
                low = todo & -todo
                todo ^= low
                new = out[low.bit_length() - 1] & ~tree & ~reach
                reach |= new
                todo |= new
            if leaves + reach.bit_count() < k:
                return None
            vb = free & -free
            free ^= vb
            # v internal takes every out-neighbour outside the tree: moving
            # a vertex under an internal vertex loses no leaf.  A lone child
            # must be internal too, else v as a leaf does as well, so the
            # branch follows such a path to a vertex with two or more
            u, path = vb.bit_length() - 1, vb
            new = out[u] & ~tree
            while new and not new & (new - 1):
                u = new.bit_length() - 1
                path |= new
                new = out[u] & ~tree & ~path
            if new:
                found = grow(tree | path | new, inner | path, free | new,
                             leaves - 1 + new.bit_count())
                if found is not None:
                    return found

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + n)  # one frame per internal branch, at most n
    try:
        for root in sorted(roots):
            while True:
                k = best + 1
                # the lone root counts as a leaf: with n >= 2 every
                # out-branching has one
                inner = grow(1 << root, 0, 1 << root, 1)
                if inner is None:
                    break
                # a search from the root that expands only `inner` spans the
                # yes tree, with a leaf wherever that tree has one; then each
                # other vertex hangs under an in-neighbour already placed, and
                # a leaf parent trades its leaf for the new one
                parent, seen, order = [-1] * n, 1 << root, [root]
                for expand in (inner | 1 << root, (1 << n) - 1):
                    for u in order:
                        if expand >> u & 1:
                            for w in D.out_adj[u]:
                                if not seen >> w & 1:
                                    seen |= 1 << w
                                    parent[w] = u
                                    order.append(w)
                best_T = OutBranching(n, root, tuple(parent))
                best = leaf_count(best_T)
                assert best >= k and validate(D, best_T) is None
    finally:
        sys.setrecursionlimit(limit)
    return best, best_T


def exact_max_leaf_tree(D: Digraph, time_budget_ms: float = 60_000.0) -> int:
    """Exact maximum leaf count over out-trees of D (need not span).

    Uses the identity: the optimum equals the max over v of the spanning
    optimum on the subdigraph reachable from v, solved once per distinct
    such subdigraph (reachable_subdigraphs).  The time budget bounds the
    whole call: each solve gets what is left.
    """
    deadline = time.monotonic() + time_budget_ms / 1000.0
    best = 0
    for sub, _ in reachable_subdigraphs(D):
        val, _ = exact_max_leaf_branching(
            sub, (deadline - time.monotonic()) * 1000.0)
        best = max(best, val)
    return best


def exact_vertex_separation(G: Graph) -> tuple[int, VertexOrdering]:
    """Exact vertex separation by subset DP; n <= 20.

    f(S) = max(|boundary(S)|, min over v in S of f(S - v)), where the
    boundary of S holds the vertices of S with a neighbour outside S.
    The DP runs on families of sets, each a 2^n-bit int with bit S set
    when S is in the family.  R_w = {S : f(S) <= w} is the family of sets
    reached from the empty set by adding one vertex at a time while the
    boundary stays at most w, so f(full) is the least w with full in R_w.
    About n^2 * w operations on 2^n-bit ints, w the pathwidth, and about
    (n + w) * 2^n / 8 bytes.  The order is read back from full: at each
    S, the least v with f(S - v) <= f(S) reaches f(S).
    """
    n = G.n
    if n > 20:
        raise ValueError(f"exact vertex separation limited to n <= 20, got {n}")
    if n == 0:
        return 0, VertexOrdering((), 0)
    adj = G.adjacency()
    full = (1 << n) - 1
    every = (1 << (1 << n)) - 1  # the family of all sets
    lacks = []  # lacks[v]: the sets without v, a block pattern doubled
    for v in range(n):
        block = 1 << v
        fam = (1 << block) - 1
        block <<= 1
        while block <= full:
            fam |= fam << block
            block <<= 1
        lacks.append(fam)
    # |boundary(S)| as a bit-sliced counter: planes[i] holds bit i.  v is
    # on the boundary of S when S holds v and lacks one of its neighbours
    planes = [0] * n.bit_length()
    for v in range(n):
        carry = 0
        for u in adj[v]:
            carry |= lacks[u]
        carry &= ~lacks[v]
        for i in range(len(planes)):
            planes[i], carry = planes[i] ^ carry, planes[i] & carry

    reach: list[int] = []  # reach[w] = R_w
    R, w = 1, 0
    while True:
        # within: the sets whose boundary is at most w, by comparing the
        # planes with w from the top bit down
        above, equal = 0, every
        for i in reversed(range(len(planes))):
            if w >> i & 1:
                equal &= planes[i]
            else:
                above |= equal & planes[i]
                equal &= ~planes[i]
        within = every & ~above
        while True:  # R_{w-1} is inside R_w, so grow from it
            before = R
            for v in range(n):
                R |= within & ((R & lacks[v]) << (1 << v))
            if R == before:
                break
        reach.append(R)
        if R >> full & 1:
            break
        w += 1

    order: list[int] = []
    S = full
    while S:
        f = 0
        while not reach[f] >> S & 1:
            f += 1
        v = 0
        while not (S >> v & 1 and reach[f] >> (S ^ 1 << v) & 1):
            v += 1
        order.append(v)
        S ^= 1 << v
    order.reverse()
    return w, VertexOrdering(tuple(order), w)
