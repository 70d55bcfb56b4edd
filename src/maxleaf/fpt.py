"""Dynamic programming over a path decomposition for maximum-leaf
out-branchings, plus the top-level parameterized deciders.

A DP state tracks, per active-bag vertex, whether it already has a tree
parent and whether it is still childless, together with the partition of
bag vertices into connected components of the partial tree.  Tree arcs
are committed when their later endpoint is introduced, so each host arc
is considered exactly once.

The root is chosen by the DP itself unless one is given.  Each committed
arc gives a parent to a vertex that had none and merges two distinct
blocks, and a finished state has one block over all n vertices.  So a
finished state holds exactly n - 1 arcs and exactly one vertex without a
parent, its root: one run covers every candidate root.

The relabels a step applies to a state's block labels (the merges of an
introduce, the release of a forget) depend only on the labels and slots
involved, not on the graph.  They are memoised at module level in tables
of at most TRANSITION_CACHE_SIZE entries each, so the many small runs of
a process share them.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .branching import OutBranching, OutTree, leaf_count, validate
from .decomposition import (
    PathDecomposition,
    _spans,
    decompose_acyclic,
    decompose_strong,
    validate_pd,
)
from .digraph import (
    Digraph,
    has_out_branching,
    is_acyclic,
    reachable_subdigraphs,
    underlying_graph,
)
from .local_search import _bfs_1ae
from .oracles import BudgetExhausted


# State encoding.  Each bag vertex holds a slot, the lowest one free when
# it is introduced, so a bag's slots are the same in every state of a step.
# A state is (has_parent_mask, childless_mask, labels): the masks are bit
# sets over slots and labels is a tuple by slot, 0 for a free slot and
# block labels 1, 2, ... numbered in order of first occurrence (restricted
# growth).  The form is canonical without sorting.
State = tuple[int, int, tuple[int, ...]]

# Most states one run may hold, summed over all the tables its witness
# reconstruction keeps; past it the run raises BudgetExhausted.  Set so
# that the width-15 instance random_strong n 16 pct 15 seed 5 at k = 13
# stops here, and not by MemoryError, under a 1 GiB address-space limit.
MAX_DP_STATES = 1_000_000


@dataclass
class DPRun:
    value: Optional[int]
    witness: Optional[OutBranching]
    states_peak: int


def _canonical(raw) -> tuple[int, ...]:
    """Relabel blocks 1, 2, ... in order of first occurrence; 0 (a free
    slot) stays 0.  Equal label tuples come back as one shared object."""
    seen = {0: 0}
    return _intern(tuple([seen.setdefault(x, len(seen)) for x in raw]))


# The transitions below depend only on their arguments, never on the graph,
# so every run in the process shares one table per transition, bounded so
# that a long-lived process does not grow without limit.
TRANSITION_CACHE_SIZE = 1 << 16

# lru_cache on the identity: returns the first equal tuple it has seen
_intern = lru_cache(maxsize=TRANSITION_CACHE_SIZE)(lambda labels: labels)


@lru_cache(maxsize=TRANSITION_CACHE_SIZE)
def _intro_moves(labels: tuple[int, ...], s: int, targets: int,
                 parent_label: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Every set of children for a vertex introduced into slot s, as
    (children mask, labels after the merge).  Children come from the
    slots in targets, at most one per block and none from the parent's
    block (parent_label, 0 when there is no parent), so no cycle closes."""
    groups: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        if targets >> i & 1 and lab != parent_label:
            groups.setdefault(lab, []).append(1 << i)
    combos = [(0, 1 << parent_label if parent_label else 0)]
    for lab, bits in groups.items():
        combos += [(kids | b, merged | 1 << lab) for kids, merged in combos
                   for b in bits]
    return tuple((kids, _canonical(-1 if i == s or merged >> lab & 1 else lab
                                   for i, lab in enumerate(labels)))
                 for kids, merged in combos)


@lru_cache(maxsize=TRANSITION_CACHE_SIZE)
def _forget(labels: tuple[int, ...], s: int) -> tuple[tuple[int, ...], bool]:
    """The labels after slot s is freed, and whether its vertex was alone
    in its block."""
    return (_canonical(0 if j == s else lab for j, lab in enumerate(labels)),
            labels.count(labels[s]) == 1)


def dp_max_leaf_run(D: Digraph, P: PathDecomposition,
                    root: Optional[int] = None, lower_bound: int = 0,
                    deadline: Optional[float] = None) -> DPRun:
    """Exact maximum leaf count over out-branchings of D rooted at root
    (at any vertex when root is None), with a witness and the peak table
    size; value and witness are None when no such out-branching exists.

    States that cannot reach lower_bound leaves are dropped.  Past
    deadline (a time.monotonic() value) the run raises BudgetExhausted
    carrying lower_bound; without a deadline the clock is not read.  A
    run holding more than MAX_DP_STATES states raises it too.
    """
    if root is not None and not (0 <= root < D.n):
        raise ValueError(f"root {root} out of range")
    err = validate_pd(underlying_graph(D), P)
    if err is not None:
        raise ValueError(f"invalid decomposition: {err}")

    max_states = MAX_DP_STATES
    first, last = _spans(P.bags)
    # at bag i, forget each vertex whose last bag is i - 1, then introduce
    # each whose first bag is i, both in vertex order; after the last bag,
    # forget the rest.  A step is (bag, is_intro, vertex).
    steps = sorted([(last[v] + 1, False, v) for v in range(D.n)]
                   + [(first[v], True, v) for v in range(D.n)])
    # leaf headroom after each step: forgets of non-root vertices remaining
    # (of every vertex when the root is free)
    headroom = [0] * (len(steps) + 1)
    for si in range(len(steps) - 1, -1, -1):
        _, intro, v = steps[si]
        headroom[si] = headroom[si + 1] + (not intro and v != root)
    # table: state -> (value, previous state, parent slot or -1, children mask)
    empty: State = (0, 0, (0,) * (P.width + 1))
    table: dict[State, tuple] = {empty: (0, None, -1, 0)}
    trace: list[dict[State, tuple]] = []
    held = 0  # states in trace
    states_peak = 1
    vertex_at: list[int] = [-1] * (P.width + 1)  # slot -> bag vertex
    slot_of: dict[int, int] = {}
    intro_at: dict[int, tuple[int, tuple[int, ...]]] = {}  # step -> (v, vertex_at)

    for si, (_, intro, v) in enumerate(steps):
        new_table: dict[State, tuple] = {}
        hr = headroom[si + 1]
        if intro:
            s = vertex_at.index(-1)
            vertex_at[s] = v
            slot_of[v] = s
            intro_at[si] = (v, tuple(vertex_at))
            vb = 1 << s
            out_mask = 0
            parents = [(-1, 0)]
            for w, t in slot_of.items():
                if w == v:
                    continue
                if w != root and (v, w) in D.arcs:
                    out_mask |= 1 << t
                if v != root and (w, v) in D.arcs:
                    parents.append((t, 1 << t))
        else:
            s = slot_of.pop(v)
            vertex_at[s] = -1
            vb = 1 << s
            needs_parent = root is not None and v != root
            # a vertex alone in its block may go only with the last step,
            # when the bag empties with it
            lone_ok = si == len(steps) - 1

        for i, (state, entry) in enumerate(table.items()):
            if not i & 255 and (
                    held + len(new_table) > max_states
                    or deadline is not None and time.monotonic() > deadline):
                raise BudgetExhausted(lower_bound, None)
            value = entry[0]
            hp, cl, labels = state
            if intro:
                if value + hr < lower_bound:
                    continue
                targets = out_mask & ~hp
                for p, pb in parents:
                    moves = _intro_moves(labels, s, targets,
                                         labels[p] if p >= 0 else 0)
                    base_hp = hp | vb if pb else hp
                    base_cl = cl & ~pb
                    for kids, new_labels in moves:
                        nxt = (base_hp | kids, base_cl if kids else base_cl | vb,
                               new_labels)
                        cur = new_table.get(nxt)
                        if cur is None or value > cur[0]:
                            new_table[nxt] = (value, state, p, kids)
            else:  # forget
                if needs_parent and not hp & vb:
                    continue
                new_labels, lone = _forget(labels, s)
                if lone and not lone_ok:
                    continue
                nv = value + 1 if hp & cl & vb else value
                if nv + hr < lower_bound:
                    continue
                nxt = (hp & ~vb, cl & ~vb, new_labels)
                cur = new_table.get(nxt)
                if cur is None or nv > cur[0]:
                    new_table[nxt] = (nv, state, -1, 0)

        table = new_table
        trace.append(table)
        held += len(table)
        states_peak = max(states_peak, len(table))
        if held > max_states:
            raise BudgetExhausted(lower_bound, None)
        if not table:
            return DPRun(None, None, states_peak)

    final = table.get(empty)
    if final is None or not D.n:  # the empty digraph has no root
        return DPRun(None, None, states_peak)
    value = final[0]

    # reconstruct committed arcs back through the trace
    parent: dict[int, int] = {}
    state = empty
    for si in range(len(steps) - 1, -1, -1):
        _, prev_state, p, kids = trace[si][state]
        if si in intro_at:
            v, at = intro_at[si]
            if p >= 0:
                parent[v] = at[p]
            for t, w in enumerate(at):
                if kids >> t & 1:
                    parent[w] = v
        state = prev_state
    if root is None:
        root = next(v for v in range(D.n) if v not in parent)
    T = OutBranching.from_parent_map(D.n, root, parent)
    assert validate(D, T) is None, "DP witness fails validation"
    assert leaf_count(T) == value, "DP witness leaf count mismatch"
    return DPRun(value, T, states_peak)


@dataclass(frozen=True)
class Decision:
    """Outcome of a parameterized decision, with provenance."""

    answer: str  # "yes" | "no"
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
            out["witness"] = w.to_dict()
        elif isinstance(w, OutTree):
            out["witness"] = {
                "root": w.root,
                "parent": {str(v): p for v, p in sorted(w.parent.items())},
            }
        return out


def decide_k_dmlob(D: Digraph, k: int,
                   deadline: Optional[float] = None) -> Decision:
    """Does D have an out-branching with at least k leaves?

    Local search first; if it falls short, decompose and run the DP over
    the decomposition once, letting it choose the root: a vertex that
    cannot reach all of D ends no spanning state.  An acyclic D (with an
    out-branching, so a single source) takes the acyclic route, every
    other D the strong one, whose beta splits give a valid decomposition
    of any digraph with an out-branching.  The paper bounds its width
    only for strong digraphs and class L; elsewhere it may be wide, and
    the DP, exact on any valid decomposition, slow.  Past deadline (a
    time.monotonic() value) the DP raises BudgetExhausted with the
    local-search lower bound and witness.
    """
    ok, roots = has_out_branching(D)
    if not ok:
        return Decision("no", k, leaves=0, method="structure")
    if k <= 0:
        return Decision("yes", k, leaves=0, method="structure")

    first: Optional[OutBranching] = None  # the tree of min(roots)
    best: Optional[OutBranching] = None
    lb = 0
    for root in sorted(roots):
        T = _bfs_1ae(D, root)
        leaves = leaf_count(T)
        if leaves >= k:
            return Decision("yes", k, leaves=leaves, witness=T,
                            method="local-search")
        if first is None:
            first = T
        if best is None or leaves > lb:
            best, lb = T, leaves

    if is_acyclic(D):  # one source, since D has an out-branching
        outcome = decompose_acyclic(D, k, first)
    else:
        outcome = decompose_strong(D, k, assume_premise=True, T=first)

    # both decompositions start from first, which has fewer than k leaves
    assert outcome.witness is None

    pd = outcome.decomposition
    try:
        run = dp_max_leaf_run(D, pd, lower_bound=lb, deadline=deadline)
    except BudgetExhausted:
        raise BudgetExhausted(lb, best) from None
    if run.value is not None and run.value > lb:
        lb, best = run.value, run.witness
    if lb >= k:
        return Decision("yes", k, leaves=lb, witness=best, method="dp",
                        width=pd.width, states_peak=run.states_peak)
    return Decision("no", k, leaves=lb, method="dp",
                    width=pd.width, states_peak=run.states_peak)


def decide_k_dmlot(D: Digraph, k: int) -> Decision:
    """Does D have an out-tree with at least k leaves?

    Reduces to the spanning problem on each distinct reachable
    subdigraph (reachable_subdigraphs).
    """
    if k <= 0:
        return Decision("yes", k, leaves=0, method="structure")
    best_leaves = 0
    for sub, relabel in reachable_subdigraphs(D):
        dec = decide_k_dmlob(sub, k)
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
