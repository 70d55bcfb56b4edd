"""Arc-exchange neighborhoods and certified locally optimal out-branchings.

An out-branching is 1-arc-exchange (1-AE) optimal when no swap of one
tree arc for one non-tree arc yields an out-branching with strictly
more leaves.  Such a swap removes an arc (p, v) whose tail p has tree
out-degree 1 and adds an arc out of an internal vertex: either (a, v)
from outside v's subtree, or (a, root) from inside it, which re-roots
the tree at v.  ``_first_improving_1ae_move`` visits the out-degree-1
vertices p in increasing order and stops at the first that has such a
swap; ``is_1ae_optimal`` certifies with it.

Every descent runs in one place, ``_descend``, which applies that swap
in place to a parent list and child lists until none is left.  Start
trees come from one builder, ``_start``, which fills both lists in a
single BFS or DFS pass; ``bfs_branching`` and ``dfs_branching`` wrap it.
A tree is validated where it leaves the module: ``improve_to_1ae``
validates its input and its result, ``best_of_restarts`` ranks its
starts on the bare lists and validates only the tree it returns or
hands to BudgetExhausted, and ``_bfs_1ae`` (the one-start descent that
decisions and decompositions use) validates its result.
``check_structural_conditions`` verifies the three necessary structural
conditions that 1-AE optimal branchings satisfy.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .branching import OutBranching, leaf_count, leaf_set, require_valid
from .digraph import Digraph
from .oracles import BudgetExhausted


@dataclass(frozen=True)
class ExchangeMove:
    """Swap the tree arc `removed` for the non-tree arc `added`."""

    removed: tuple[int, int]
    added: tuple[int, int]


@dataclass(frozen=True)
class Certificate:
    """1-AE certificate: "optimal", or "improvable" with the lexicographically
    smallest improving 1-exchange as `violating_move`."""

    status: str  # "optimal" | "improvable"
    violating_move: Optional[ExchangeMove] = None


@dataclass(frozen=True)
class Violation:
    condition: str  # "a" | "b" | "c"
    arc: tuple[int, int]


def check_structural_conditions(D: Digraph, T: OutBranching) -> list[Violation]:
    """Violations of the three structural conditions every 1-AE optimal
    out-branching satisfies.

    (a) no non-tree arc (u, v) between non-leaf siblings when v's parent
        has tree out-degree 1;
    (b) no non-tree arc (u, v) down a root path between non-leaves when
        v's parent has tree out-degree 1 and u is strictly closer to the
        root;
    (c) no arc (v, root) from a non-leaf v when the cycle it closes with
        the root-to-v tree path contains a vertex x (x != root) whose
        parent has tree out-degree 1.
    """
    L = leaf_set(T)
    deg = T.out_degrees()
    depths = T.depths()
    tree_arcs = T.arcs()
    r = T.root
    out: list[Violation] = []

    def ancestors(v: int) -> set[int]:
        acc = set()
        cur = v
        while cur != r:
            cur = T.parent[cur]
            acc.add(cur)
        return acc

    anc = {v: ancestors(v) for v in range(T.n)}

    for u, v in sorted(D.arcs - tree_arcs):
        if v == r:
            if u in L:
                continue
            # cycle = tree path r..u plus arc (u, r)
            cycle = [u]
            cur = u
            while cur != r:
                cur = T.parent[cur]
                cycle.append(cur)
            if any(x != r and deg[T.parent[x]] == 1 for x in cycle):
                out.append(Violation("c", (u, v)))
            continue
        if u in L or v in L:
            continue
        if deg[T.parent[v]] != 1:
            continue
        same_path = u in anc[v] or v in anc[u]
        if not same_path:
            out.append(Violation("a", (u, v)))
        elif depths[u] < depths[v]:
            out.append(Violation("b", (u, v)))
    return out


def _improving_swap(D: Digraph, n: int, root: int, parent: Sequence[int],
                    ch: list[list[int]]) -> Optional[tuple[int, int, tuple[int, int]]]:
    """Core of ``_first_improving_1ae_move`` on a tree given as its root,
    parent list and child lists: ``(p, v, added)`` for the swap of
    (p, v) for `added`, or None.  Its choice does not depend on the
    order within the child lists."""
    # x lies in v's subtree iff pre[v] <= pre[x] < pre[v] + size[v]
    pre = [0] * n
    size = [1] * n
    order = []
    stack = [root]
    for i in range(n):  # a corrupt child list leaves the stack non-empty
        x = stack.pop()
        pre[x] = i
        order.append(x)
        stack.extend(ch[x])
    assert not stack, "child lists do not form a tree on n vertices"
    for x in reversed(order[1:]):
        size[parent[x]] += size[x]

    into_root = [a for a in D.in_adj[root] if ch[a]]
    for p in range(n):
        if len(ch[p]) != 1:
            continue
        v = ch[p][0]
        lo, hi = pre[v], pre[v] + size[v]
        added = None
        for a in D.in_adj[v]:
            if a != p and ch[a] and not lo <= pre[a] < hi:
                added = (a, v)
                break
        for a in into_root:
            if lo <= pre[a] < hi:
                if added is None or (a, root) < added:
                    added = (a, root)
                break
        if added is not None:
            return p, v, added
    return None


def _first_improving_1ae_move(D: Digraph, T: OutBranching) -> Optional[ExchangeMove]:
    """Lexicographically smallest improving 1-exchange, or None.

    Equivalent to the exhaustive pair sweep.  Swapping (p, v) for (a, b)
    changes only the out-degrees of p and a, so it gains a leaf exactly
    when p has tree out-degree 1 and a != p is internal; v is then p's
    only child.  For such a removed arc the valid added arcs are
    (i) (a, v) with a outside v's subtree, and (ii) (a, root) with a
    inside v's subtree, which re-roots the tree at v; anything else
    leaves two parentless vertices or a cycle.  The removed arc decides
    the order first, so the out-degree-1 vertices p are visited in
    increasing order and the search stops at the first p that has a
    move, returning the smaller of its least move of each kind.
    """
    found = _improving_swap(D, T.n, T.root, T.parent, T.children())
    if found is None:
        return None
    p, v, added = found
    return ExchangeMove((p, v), added)


def is_1ae_optimal(D: Digraph, T: OutBranching) -> Certificate:
    require_valid(D, T)
    move = _first_improving_1ae_move(D, T)
    if move is None:
        return Certificate("optimal")
    return Certificate("improvable", move)


def _descend(D: Digraph, root: int, parent: list[int], ch: list[list[int]]) -> int:
    """Apply the first improving 1-exchange in place to a parent list and
    child lists until none is left; returns the final root.

    The finder proves each swap valid; a swap empties p's child list and
    adds one child to a.  Leaf count increases each step, so at most
    n - 2 steps are taken."""
    n = D.n
    while True:
        found = _improving_swap(D, n, root, parent, ch)
        if found is None:
            return root
        p, v, (a, b) = found
        ch[p] = []
        ch[a].append(b)
        parent[b] = a
        if b != v:  # (a, root): re-root at v
            parent[v] = -1
            root = v


def _validated(D: Digraph, root: int, parent: Sequence[int]) -> OutBranching:
    """The tree given by root and parent list, validated as it leaves."""
    T = OutBranching(D.n, root, tuple(parent))
    require_valid(D, T)
    return T


def improve_to_1ae(D: Digraph, T0: OutBranching) -> OutBranching:
    """Repeatedly apply the first improving 1-exchange (lexicographic arc
    order) until none exists.  The tree is validated on entry and once
    more on return."""
    require_valid(D, T0)
    parent = list(T0.parent)
    root = _descend(D, T0.root, parent, T0.children())
    return _validated(D, root, parent)


def _start(D: Digraph, root: int, rng: random.Random | None,
           bfs: bool) -> tuple[list[int], list[list[int]]]:
    """Parent list and child lists of the BFS (bfs true) or DFS
    out-branching from root, filled in one pass.  With rng each
    out-neighbor list is shuffled by the draws of ``random.Random.shuffle``,
    inlined: Fisher-Yates from the back, slot m - 1 swapped with
    ``getrandbits(m.bit_length())`` redrawn while >= m.  Root must reach
    all vertices."""
    n = D.n
    out_adj = D.out_adj
    getrandbits = rng.getrandbits if rng is not None else None
    parent = [-1] * n
    ch: list[list[int]] = [[] for _ in range(n)]
    seen = [False] * n
    seen[root] = True
    todo = [root]
    i = 0
    while i < len(todo):  # DFS pops from the back and leaves i at 0
        if bfs:
            u = todo[i]
            i += 1
        else:
            u = todo.pop()
        nbrs = out_adj[u]
        if getrandbits is not None and len(nbrs) > 1:
            nbrs = list(nbrs)
            for m in range(len(nbrs), 1, -1):
                k = m.bit_length()
                j = getrandbits(k)
                while j >= m:
                    j = getrandbits(k)
                nbrs[m - 1], nbrs[j] = nbrs[j], nbrs[m - 1]
        kids = ch[u]
        for w in nbrs:
            if not seen[w]:
                seen[w] = True
                parent[w] = u
                kids.append(w)
                todo.append(w)
    if not all(seen):
        raise ValueError(f"root {root} does not reach all vertices")
    return parent, ch


def bfs_branching(D: Digraph, root: int,
                  rng: random.Random | None = None) -> OutBranching:
    """BFS out-branching from root; neighbor order shuffled when rng given.

    Root must reach all vertices.
    """
    parent, _ = _start(D, root, rng, True)
    return OutBranching(D.n, root, tuple(parent))


def dfs_branching(D: Digraph, root: int,
                  rng: random.Random | None = None) -> OutBranching:
    """DFS out-branching from root, like ``bfs_branching``."""
    parent, _ = _start(D, root, rng, False)
    return OutBranching(D.n, root, tuple(parent))


def _bfs_1ae(D: Digraph, root: int) -> OutBranching:
    """``improve_to_1ae(D, bfs_branching(D, root))`` without validating the
    fresh start tree: validated once, on return."""
    parent, ch = _start(D, root, None, True)
    return _validated(D, _descend(D, root, parent, ch), parent)


def best_of_restarts(D: Digraph, roots: Iterable[int], starts_per_root: int,
                     seed: int, deadline: float | None = None) -> OutBranching:
    """Best certified 1-AE optimal branching over randomized BFS/DFS starts.

    Deterministic given the seed; ties broken by canonical parent tuple.
    Every root must reach all vertices, or the first start from it
    raises ValueError.  With a deadline (a time.monotonic() value) the
    clock is read between starts, so the first start always runs; past
    the deadline BudgetExhausted carries the best tree so far.  Starts
    are ranked on their parent and child lists; only the tree that
    leaves is built and validated.
    """
    roots = sorted(set(roots))
    if not roots:
        raise ValueError("empty root set")
    if starts_per_root < 1:
        raise ValueError(f"starts_per_root must be at least 1, got {starts_per_root}")
    best: tuple | None = None  # (-leaves, root, parent tuple)
    for root in roots:
        for s in range(starts_per_root):
            if deadline is not None and best is not None and time.monotonic() > deadline:
                T = _validated(D, best[1], best[2])
                raise BudgetExhausted(leaf_count(T), T)
            rng = random.Random(seed * 1000003 + root * 8191 + s)
            parent, ch = _start(D, root, rng, s % 2 == 0)
            r = _descend(D, root, parent, ch)
            key = (-ch.count([]), r, tuple(parent))
            if best is None or key < best:
                best = key
    return _validated(D, best[1], best[2])
