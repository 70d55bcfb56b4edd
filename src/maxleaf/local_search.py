"""Arc-exchange neighborhoods and certified locally optimal out-branchings.

An out-branching is 1-arc-exchange (1-AE) optimal when no swap of one
tree arc for one non-tree arc yields an out-branching with strictly
more leaves.  ``_first_improving_1ae_move`` finds such a swap from the
characterization of valid 1-exchanges; ``improve_to_1ae`` applies it
until none is left and ``is_1ae_optimal`` certifies with it.
``check_structural_conditions`` verifies the three necessary structural
conditions that 1-AE optimal branchings satisfy.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional

from .branching import OutBranching, leaf_count, leaf_set, require_valid
from .digraph import Digraph, reachable_set


@dataclass(frozen=True)
class ExchangeMove:
    """Swap `removed` tree arcs for `added` non-tree arcs, equal sizes."""

    removed: frozenset[tuple[int, int]]
    added: frozenset[tuple[int, int]]

    @property
    def size(self) -> int:
        return len(self.removed)

    @staticmethod
    def single(removed: tuple[int, int], added: tuple[int, int]) -> "ExchangeMove":
        return ExchangeMove(frozenset([removed]), frozenset([added]))


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


class MoveRejection(Exception):
    """Move does not produce an out-branching; `reason` says why."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


def _arc_set_to_branching(D: Digraph, arcs: set[tuple[int, int]]) -> OutBranching:
    """Interpret an arc set as an out-branching of D, or raise MoveRejection."""
    n = D.n
    if len(arcs) != n - 1:
        raise MoveRejection("wrong arc count")
    parent = [-1] * n
    for u, v in arcs:
        if parent[v] != -1:
            raise MoveRejection(f"vertex {v} has two parents")
        parent[v] = u
    roots = [v for v in range(n) if parent[v] == -1]
    if len(roots) != 1:
        raise MoveRejection("disconnected")
    root = roots[0]
    T = OutBranching(n, root, tuple(parent))
    depths = T.depths()
    if any(d < 0 for d in depths):
        raise MoveRejection("cycle")
    return T


def apply_move(D: Digraph, T: OutBranching, move: ExchangeMove) -> OutBranching:
    """Apply an exchange move; raises MoveRejection when the resulting arc
    set is not an out-branching.  A root change is allowed."""
    tree_arcs = T.arcs()
    if not move.removed <= tree_arcs:
        raise MoveRejection("removed arc not in tree")
    if move.added & tree_arcs:
        raise MoveRejection("added arc already in tree")
    if not move.added <= D.arcs:
        raise MoveRejection("added arc not in host digraph")
    if len(move.removed) != len(move.added):
        raise MoveRejection("removed/added size mismatch")
    return _arc_set_to_branching(D, (tree_arcs - move.removed) | move.added)


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


def _first_improving_1ae_move(D: Digraph, T: OutBranching) -> Optional[ExchangeMove]:
    """Lexicographically smallest improving 1-exchange, or None.

    Equivalent to the exhaustive pair sweep: a valid 1-exchange either
    (i) replaces the parent arc of the added arc's head v by (a, v) with
    a outside v's subtree, or (ii) adds (a, root) and removes an arc of
    the root-to-a tree path, re-rooting at the removed arc's head.
    Everything else leaves two parentless vertices or a cycle.
    """
    n, r = T.n, T.root
    deg = T.out_degrees()
    parent = T.parent
    # subtree intervals via iterative preorder
    ch = T.children()
    tin = [0] * n
    tout = [0] * n
    clock = 0
    stack = [(r, False)]
    while stack:
        x, done = stack.pop()
        if done:
            tout[x] = clock
            continue
        tin[x] = clock
        clock += 1
        stack.append((x, True))
        for c in reversed(ch[x]):
            stack.append((c, False))

    def in_subtree(x: int, v: int) -> bool:
        return tin[v] <= tin[x] < tout[v]

    def gain(rem_tail: int, add_tail: int) -> int:
        # only the two tails change out-degree
        delta = 0
        if rem_tail == add_tail:
            return 0
        if deg[rem_tail] == 1:
            delta += 1
        if deg[add_tail] == 0:
            delta -= 1
        return delta

    tree_arcs = T.arcs()
    best: tuple | None = None
    for a, b in D.arcs:
        if (a, b) in tree_arcs:
            continue
        if b != r:
            if in_subtree(a, b):
                continue  # cycle
            if gain(parent[b], a) > 0:
                key = ((parent[b], b), (a, b))
                if best is None or key < best:
                    best = key
        else:
            # walk up from a; removing (parent[v], v) re-roots at v
            v = a
            while v != r:
                if gain(parent[v], a) > 0:
                    key = ((parent[v], v), (a, r))
                    if best is None or key < best:
                        best = key
                v = parent[v]
    if best is None:
        return None
    return ExchangeMove.single(*best)


def is_1ae_optimal(D: Digraph, T: OutBranching) -> Certificate:
    require_valid(D, T)
    move = _first_improving_1ae_move(D, T)
    if move is None:
        return Certificate("optimal")
    return Certificate("improvable", move)


def improve_to_1ae(D: Digraph, T0: OutBranching) -> OutBranching:
    """Repeatedly apply the first improving 1-exchange (lexicographic arc
    order) until none exists.  Leaf count increases each step, so at most
    n - 2 steps are taken."""
    require_valid(D, T0)
    T = T0
    while True:
        move = _first_improving_1ae_move(D, T)
        if move is None:
            return T
        T = apply_move(D, T, move)


def bfs_branching(D: Digraph, root: int,
                  rng: random.Random | None = None) -> OutBranching:
    """BFS out-branching from root; neighbor order shuffled when rng given.

    Root must reach all vertices.
    """
    parent = [-1] * D.n
    seen = [False] * D.n
    seen[root] = True
    queue = [root]
    i = 0
    while i < len(queue):
        u = queue[i]
        i += 1
        nbrs = list(D.out_adj[u])
        if rng is not None:
            rng.shuffle(nbrs)
        for w in nbrs:
            if not seen[w]:
                seen[w] = True
                parent[w] = u
                queue.append(w)
    if not all(seen):
        raise ValueError(f"root {root} does not reach all vertices")
    return OutBranching(D.n, root, tuple(parent))


def dfs_branching(D: Digraph, root: int,
                  rng: random.Random | None = None) -> OutBranching:
    parent = [-1] * D.n
    seen = [False] * D.n
    seen[root] = True
    stack = [root]
    while stack:
        u = stack.pop()
        nbrs = list(D.out_adj[u])
        if rng is not None:
            rng.shuffle(nbrs)
        for w in nbrs:
            if not seen[w]:
                seen[w] = True
                parent[w] = u
                stack.append(w)
    if not all(seen):
        raise ValueError(f"root {root} does not reach all vertices")
    return OutBranching(D.n, root, tuple(parent))


def best_of_restarts(D: Digraph, roots: Iterable[int], starts_per_root: int,
                     seed: int) -> OutBranching:
    """Best certified 1-AE optimal branching over randomized BFS/DFS starts.

    Deterministic given the seed; ties broken by canonical parent tuple.
    """
    roots = sorted(set(roots))
    if not roots:
        raise ValueError("empty root set")
    best: OutBranching | None = None
    best_key: tuple | None = None
    for root in roots:
        if len(reachable_set(D, root)) != D.n:
            raise ValueError(f"root {root} cannot reach all vertices")
        for s in range(starts_per_root):
            rng = random.Random(seed * 1000003 + root * 8191 + s)
            start = bfs_branching(D, root, rng) if s % 2 == 0 else dfs_branching(D, root, rng)
            T = improve_to_1ae(D, start)
            key = (-leaf_count(T), T.root, T.parent)
            if best_key is None or key < best_key:
                best, best_key = T, key
    assert best is not None
    return best
