"""Dynamic programming over a path decomposition for maximum-leaf
out-branchings, plus the top-level parameterized deciders.

A DP state tracks, per active-bag vertex, whether it already has a tree
parent and whether it is still childless, together with the partition of
bag vertices into connected components of the partial tree.  Tree arcs
are committed when their later endpoint is introduced, so each host arc
is considered exactly once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .branching import OutBranching, OutTree, leaf_count, validate
from .decomposition import (
    PathDecomposition,
    decompose_acyclic,
    decompose_strong,
    validate_pd,
)
from .digraph import (
    Digraph,
    has_out_branching,
    in_class_L,
    is_acyclic,
    is_strongly_connected,
    reachable_subdigraph,
    underlying_graph,
)
from .local_search import bfs_branching, improve_to_1ae


@dataclass(frozen=True)
class NicePD:
    """Introduce/forget refinement of a path decomposition."""

    steps: tuple[tuple[str, int], ...]  # ("intro"|"forget", vertex)
    width: int


def to_nice(P: PathDecomposition) -> NicePD:
    """Single-vertex-change refinement; width unchanged."""
    bags = [set(b) for b in P.bags]
    # drop consecutive duplicates
    dedup: list[set[int]] = []
    for b in bags:
        if not dedup or b != dedup[-1]:
            dedup.append(b)
    steps: list[tuple[str, int]] = []
    prev: set[int] = set()
    for b in dedup:
        for v in sorted(prev - b):
            steps.append(("forget", v))
        for v in sorted(b - prev):
            steps.append(("intro", v))
        prev = b
    for v in sorted(prev):
        steps.append(("forget", v))
    width = max((len(b) for b in P.bags), default=1) - 1
    return NicePD(tuple(steps), width)


# state encoding:
#   roles:  tuple of (vertex, has_parent, childless) sorted by vertex
#   blocks: tuple of sorted vertex tuples, sorted by smallest member
State = tuple[tuple[tuple[int, bool, bool], ...], tuple[tuple[int, ...], ...]]


def state_space_cap(bag_size: int) -> int:
    """Regression guard: Bell(bag_size) * 4**bag_size."""
    bell = [[1]]
    for i in range(1, bag_size + 1):
        row = [bell[-1][-1]]
        for x in bell[-1]:
            row.append(row[-1] + x)
        bell.append(row)
    b = bell[bag_size][0] if bag_size > 0 else 1
    return b * 4 ** bag_size


@dataclass
class DPRun:
    value: Optional[int]
    witness: Optional[OutBranching]
    states_peak: int


def dp_max_leaf(D: Digraph, P: PathDecomposition, root: int) -> Optional[tuple[int, OutBranching]]:
    """Exact maximum leaf count over out-branchings of D rooted at root,
    with a witness; None when no such out-branching exists."""
    run = dp_max_leaf_run(D, P, root)
    if run.value is None:
        return None
    return run.value, run.witness


def dp_max_leaf_run(D: Digraph, P: PathDecomposition, root: int,
                    lower_bound: int = 0) -> DPRun:
    if not (0 <= root < D.n):
        raise ValueError(f"root {root} out of range")
    err = validate_pd(underlying_graph(D), P)
    if err is not None:
        raise ValueError(f"invalid decomposition: {err}")
    if D.n == 1:
        return DPRun(0, OutBranching(1, 0, (-1,)), 1)

    nice = to_nice(P)
    steps = nice.steps
    # leaf headroom after each step: forgets of non-root vertices remaining
    headroom = [0] * (len(steps) + 1)
    for si in range(len(steps) - 1, -1, -1):
        kind, v = steps[si]
        headroom[si] = headroom[si + 1] + (1 if kind == "forget" and v != root else 0)
    # table: state -> (value, backpointer)
    # backpointer: (prev_state, arcs committed at this step)
    empty: State = ((), ())
    table: dict[State, tuple[int, tuple]] = {empty: (0, None)}
    trace: list[dict[State, tuple[int, tuple]]] = []
    states_peak = 1

    for si, (kind, v) in enumerate(steps):
        last = si == len(steps) - 1
        new_table: dict[State, tuple[int, tuple]] = {}

        def offer(state: State, value: int, back: tuple) -> None:
            if value + headroom[si + 1] < lower_bound:
                return
            cur = new_table.get(state)
            if cur is None or value > cur[0]:
                new_table[state] = (value, back)

        for state, (value, _) in table.items():
            roles, blocks = state
            role_of = {r[0]: (r[1], r[2]) for r in roles}
            if kind == "intro":
                bag = list(role_of)
                in_arcs = [u for u in bag if (u, v) in D.arcs] if v != root else []
                out_targets = [
                    w for w in bag
                    if (v, w) in D.arcs and not role_of[w][0] and w != root
                ]
                block_of = {u: bi for bi, blk in enumerate(blocks) for u in blk}
                for parent in [None] + in_arcs:
                    for mask in range(1 << len(out_targets)):
                        kids = [out_targets[i] for i in range(len(out_targets))
                                if mask >> i & 1]
                        used = set()
                        ok = True
                        for w in kids:
                            b = block_of[w]
                            if b in used:
                                ok = False
                                break
                            used.add(b)
                        if ok and parent is not None and block_of[parent] in used:
                            ok = False
                        if not ok:
                            continue
                        merged = used | ({block_of[parent]} if parent is not None else set())
                        new_blocks = [tuple(blk) for bi, blk in enumerate(blocks)
                                      if bi not in merged]
                        big = (v,) + tuple(
                            u for bi in sorted(merged) for u in blocks[bi])
                        new_blocks.append(tuple(sorted(big)))
                        new_blocks.sort(key=lambda b: b[0])
                        new_roles = dict(role_of)
                        new_roles[v] = (parent is not None, True)
                        for w in kids:
                            new_roles[w] = (True, new_roles[w][1])
                        if parent is not None:
                            new_roles[parent] = (new_roles[parent][0], False)
                        if kids:
                            new_roles[v] = (new_roles[v][0], False)
                        nr = tuple(sorted(
                            (u, hp, cl) for u, (hp, cl) in new_roles.items()))
                        arcs = tuple(
                            ([(parent, v)] if parent is not None else [])
                            + [(v, w) for w in kids])
                        offer((nr, tuple(new_blocks)), value, (state, arcs))
            else:  # forget
                has_parent, childless = role_of[v]
                if not has_parent and v != root:
                    continue
                new_roles = tuple(r for r in roles if r[0] != v)
                new_blocks = []
                emptied = False
                for blk in blocks:
                    if v in blk:
                        rest = tuple(u for u in blk if u != v)
                        if rest:
                            new_blocks.append(rest)
                        else:
                            emptied = True
                    else:
                        new_blocks.append(blk)
                if emptied and (new_blocks or not last):
                    continue
                new_blocks.sort(key=lambda b: b[0])
                gained = 1 if childless and v != root else 0
                offer((new_roles, tuple(new_blocks)),
                      value + gained, (state, ()))

        table = new_table
        trace.append(dict(table))
        states_peak = max(states_peak, len(table))
        if not table:
            return DPRun(None, None, states_peak)

    final = table.get(((), ()))
    if final is None:
        return DPRun(None, None, states_peak)
    value = final[0]

    # reconstruct committed arcs back through the trace
    arcs: list[tuple[int, int]] = []
    state: State = ((), ())
    for si in range(len(steps) - 1, -1, -1):
        layer = trace[si]
        _, back = layer[state]
        prev_state, committed = back if back is not None else (((), ()), ())
        arcs.extend(committed)
        state = prev_state
    parent = {w: u for u, w in arcs}
    T = OutBranching.from_parent_map(D.n, root, parent)
    assert validate(D, T) is None, "DP witness fails validation"
    assert leaf_count(T) == value, "DP witness leaf count mismatch"
    return DPRun(value, T, states_peak)


@dataclass(frozen=True)
class Decision:
    """Outcome of a parameterized decision, with provenance."""

    answer: str  # "yes" | "no" | "unsupported"
    k: int
    leaves: Optional[int] = None
    witness: OutBranching | OutTree | None = None
    method: str = ""
    width: Optional[int] = None
    states_peak: Optional[int] = None

    def to_dict(self) -> dict:
        out = {"answer": self.answer, "k": self.k, "leaves": self.leaves,
               "witness": None, "method": self.method, "width": self.width,
               "states_peak": self.states_peak}
        w = self.witness
        if isinstance(w, OutBranching):
            out["witness"] = {
                "root": w.root,
                "parent": {str(v): w.parent[v] for v in range(w.n)
                           if v != w.root},
            }
        elif isinstance(w, OutTree):
            out["witness"] = {
                "root": w.root,
                "parent": {str(v): p for v, p in sorted(w.parent.items())},
            }
        return out


def _is_acyclic_single_source(D: Digraph) -> bool:
    return is_acyclic(D) and sum(1 for v in range(D.n) if D.in_degree(v) == 0) == 1


def decide_k_dmlob(D: Digraph, k: int, seed: int = 0,
                   assume_supported: bool = False) -> Decision:
    """Does D have an out-branching with at least k leaves?

    Local search first; if it falls short, decompose (acyclic or strong
    route) and run the DP over the decomposition for every candidate
    root.  Digraphs outside the supported classes get "unsupported"
    unless assume_supported is set (used for reachable subdigraphs,
    where tree and branching leaf optima provably coincide).
    """
    ok, roots = has_out_branching(D)
    if not ok:
        return Decision("no", k, leaves=0, method="structure")
    if k <= 0:
        return Decision("yes", k, leaves=0, method="structure")

    best: Optional[OutBranching] = None
    for root in sorted(roots):
        T = improve_to_1ae(D, bfs_branching(D, root))
        if best is None or leaf_count(T) > leaf_count(best):
            best = T
        if leaf_count(T) >= k:
            return Decision("yes", k, leaves=leaf_count(T), witness=T,
                            method="local-search")

    if _is_acyclic_single_source(D):
        outcome = decompose_acyclic(D, k)
    elif is_strongly_connected(D) or in_class_L(D) or assume_supported:
        outcome = decompose_strong(D, k, seed=seed,
                                   assume_premise=assume_supported)
    else:
        return Decision("unsupported", k)

    if outcome.witness is not None:
        T = outcome.witness
        return Decision("yes", k, leaves=leaf_count(T), witness=T,
                        method="decomposition")

    pd = outcome.decomposition
    lb = leaf_count(best)
    best_val, best_T, peak = lb, best, 0
    for root in sorted(roots):
        run = dp_max_leaf_run(D, pd, root, lower_bound=lb)
        peak = max(peak, run.states_peak)
        if run.value is not None and run.value > best_val:
            best_val, best_T = run.value, run.witness
    if best_val >= k:
        return Decision("yes", k, leaves=best_val, witness=best_T,
                        method="dp", width=pd.width, states_peak=peak)
    return Decision("no", k, leaves=best_val, method="dp",
                    width=pd.width, states_peak=peak)


def decide_k_dmlot(D: Digraph, k: int, seed: int = 0) -> Decision:
    """Does D have an out-tree with at least k leaves?

    Reduces to the spanning problem on each vertex's reachable
    subdigraph; those subdigraphs are always in the supported class.
    """
    if k <= 0:
        return Decision("yes", k, leaves=0, method="structure")
    best_leaves = 0
    for v in range(D.n):
        sub, relabel = reachable_subdigraph(D, v)
        dec = decide_k_dmlob(sub, k, seed=seed, assume_supported=True)
        assert dec.answer != "unsupported", "reachable subdigraph not supported"
        if dec.answer == "yes":
            inv = {new: old for old, new in relabel.items()}
            W = dec.witness
            parent = {inv[w]: inv[W.parent[w]]
                      for w in range(W.n) if w != W.root}
            tree = OutTree(frozenset(inv.values()), inv[W.root], parent)
            return Decision("yes", k, leaves=dec.leaves, witness=tree,
                            method=dec.method)
        best_leaves = max(best_leaves, dec.leaves)
    return Decision("no", k, leaves=best_leaves,
                    method="dp" if D.n else "structure")
