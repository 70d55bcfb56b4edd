"""Directed graph representation, parsing and structural predicates.

Vertices are dense integers 0..n-1.  Digraphs are immutable after
construction; all operations here are pure functions.  A digraph's
strong components are computed once, on first use, and kept with it, so
the structural predicates built on them share one Tarjan pass.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence


class FormatError(ValueError):
    """Malformed edge-list / JSON input, with a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Digraph:
    """A simple digraph: no self-loops, no duplicate arcs, 2-cycles allowed."""

    n: int
    arcs: frozenset[tuple[int, int]]
    out_adj: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    in_adj: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    # filled by strong_components on first use; a declared field rather
    # than a functools.cached_property, which would materialise the
    # instance __dict__ and slow every later attribute read
    _scc: Optional["StrongComponentIndex"] = field(
        default=None, init=False, compare=False, repr=False)

    @staticmethod
    def build(n: int, arcs: Iterable[tuple[int, int]]) -> "Digraph":
        arc_set = frozenset((int(u), int(v)) for u, v in arcs)
        for u, v in arc_set:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u},{v}) out of range for n={n}")
        out: list[list[int]] = [[] for _ in range(n)]
        inn: list[list[int]] = [[] for _ in range(n)]
        for u, v in sorted(arc_set):
            out[u].append(v)
            inn[v].append(u)
        for lst in inn:
            lst.sort()
        return Digraph(
            n=n,
            arcs=arc_set,
            out_adj=tuple(tuple(a) for a in out),
            in_adj=tuple(tuple(a) for a in inn),
        )

    @property
    def m(self) -> int:
        return len(self.arcs)

    def is_oriented(self) -> bool:
        """True iff the digraph has no directed 2-cycle."""
        return all((v, u) not in self.arcs for u, v in self.arcs)

    def in_degree(self, v: int) -> int:
        return len(self.in_adj[v])

    def min_in_degree(self) -> int:
        return min((len(a) for a in self.in_adj), default=0)

    def induced(self, vertices: Sequence[int]) -> tuple["Digraph", dict[int, int]]:
        """Induced subdigraph; vertices relabeled densely in sorted order.

        Returns the subdigraph and the old->new label map.
        """
        keep = sorted(set(vertices))
        relabel = {v: i for i, v in enumerate(keep)}
        arcs = [
            (relabel[u], relabel[v])
            for u, v in self.arcs
            if u in relabel and v in relabel
        ]
        return Digraph.build(len(keep), arcs), relabel


@dataclass(frozen=True)
class StrongComponentIndex:
    """Strong components with their acyclic condensation.

    A digraph keeps its index as long as it lives, so the condensation is
    not stored but built on each access: for an acyclic digraph it is as
    large as the digraph itself.
    """

    component_id: tuple[int, ...]
    source_components: frozenset[int]
    arcs: frozenset[tuple[int, int]] = field(compare=False, repr=False)  # D.arcs, shared

    @property
    def condensation(self) -> Digraph:
        comp = self.component_id
        return Digraph.build(max(comp, default=-1) + 1, {
            (comp[u], comp[v]) for u, v in self.arcs if comp[u] != comp[v]})


def parse(text: str) -> Digraph:
    """Parse a digraph from edge-list text or a JSON document.

    Edge list: first line ``n m``, then m lines ``u v``.  JSON:
    ``{"n": int, "arcs": [[u, v], ...]}``.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text)
    return _parse_edge_list(text)


def _parse_json(text: str) -> Digraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict) or "n" not in doc or "arcs" not in doc:
        raise FormatError('JSON document must have keys "n" and "arcs"')
    n = doc["n"]
    if not _is_int(n) or n < 0:
        raise FormatError('"n" must be a nonnegative integer')
    if not isinstance(doc["arcs"], list):
        raise FormatError('"arcs" must be a list')
    arcs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for i, pair in enumerate(doc["arcs"]):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise FormatError(f"arc #{i} is not a pair")
        u, v = pair
        _check_arc(u, v, n, seen, line=None)
        arcs.append((u, v))
    return Digraph.build(n, arcs)


def int_token(tok: str) -> int:
    """The integer a text token spells as ``str(v)``; raises ValueError on
    any other form (padding, '+', '_', a leading zero, a non-ASCII digit)."""
    v = int(tok)
    if tok != str(v):
        raise ValueError(f"not a canonical integer: {tok!r}")
    return v


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_arc(u, v, n: int, seen: set[tuple[int, int]], line: int | None) -> None:
    """Reject a malformed or repeated arc; record it in `seen`."""
    if not (_is_int(u) and _is_int(v)):
        raise FormatError(f"non-integer arc endpoint ({u}, {v})", line)
    if u == v:
        raise FormatError(f"self-loop at vertex {u}", line)
    if not (0 <= u < n) or not (0 <= v < n):
        raise FormatError(f"vertex index out of range in arc ({u}, {v})", line)
    if (u, v) in seen:
        raise FormatError(f"duplicate arc ({u}, {v})", line)
    seen.add((u, v))


def _parse_edge_list(text: str) -> Digraph:
    lines = text.splitlines()
    if not lines or not lines[0].split():
        raise FormatError("missing header line", 1)
    header = lines[0].split()
    if len(header) != 2:
        raise FormatError(f"header must be 'n m', got {lines[0]!r}", 1)
    try:
        n, m = int_token(header[0]), int_token(header[1])
    except ValueError:
        raise FormatError(f"non-integer header {lines[0]!r}", 1) from None
    if n < 0 or m < 0:
        raise FormatError("negative n or m", 1)
    arcs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    lineno = 1
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = int_token(parts[0]), int_token(parts[1])
        except ValueError:
            raise FormatError(f"non-integer arc {line!r}", lineno) from None
        _check_arc(u, v, n, seen, lineno)
        arcs.append((u, v))
    if len(arcs) != m:
        raise FormatError(f"header promises {m} arcs, found {len(arcs)}", lineno)
    return Digraph.build(n, arcs)


def serialize(D: Digraph) -> str:
    """Canonical edge-list text: arcs sorted lexicographically."""
    lines = [f"{D.n} {D.m}"]
    lines.extend(f"{u} {v}" for u, v in sorted(D.arcs))
    return "\n".join(lines) + "\n"


def strong_components(D: Digraph) -> StrongComponentIndex:
    """Strong components (iterative Tarjan), computed once per digraph.

    Component labels are assigned in order of the smallest vertex each
    component contains, so output is deterministic.
    """
    if D._scc is None:
        object.__setattr__(D, "_scc", _tarjan(D))
    return D._scc


def _tarjan(D: Digraph) -> StrongComponentIndex:
    n = D.n
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    raw_comp = [-1] * n
    counter = 0
    comp_count = 0

    for start in range(n):
        if index[start] != -1:
            continue
        # (vertex, iterator position) explicit stack to avoid recursion limits
        work: list[tuple[int, int]] = [(start, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for i in range(pi, len(D.out_adj[v])):
                w = D.out_adj[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    raw_comp[w] = comp_count
                    if w == v:
                        break
                comp_count += 1
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])

    # relabel components by smallest contained vertex
    smallest: dict[int, int] = {}
    for v in range(n):
        c = raw_comp[v]
        if c not in smallest or v < smallest[c]:
            smallest[c] = v
    order = sorted(smallest, key=lambda c: smallest[c])
    relabel = {c: i for i, c in enumerate(order)}
    comp = tuple(relabel[raw_comp[v]] for v in range(n))

    entered = {comp[v] for u, v in D.arcs if comp[u] != comp[v]}
    sources = frozenset(c for c in range(comp_count) if c not in entered)
    return StrongComponentIndex(comp, sources, D.arcs)


def is_strongly_connected(D: Digraph) -> bool:
    if D.n <= 1:
        return True
    return len(set(strong_components(D).component_id)) == 1


def is_acyclic(D: Digraph) -> bool:
    """True iff D has no directed cycle (Kahn: repeatedly remove a vertex
    of in-degree zero; a cycle leaves vertices behind)."""
    indeg = [len(a) for a in D.in_adj]
    todo = [v for v in range(D.n) if not indeg[v]]
    removed = 0
    while todo:
        u = todo.pop()
        removed += 1
        for w in D.out_adj[u]:
            indeg[w] -= 1
            if not indeg[w]:
                todo.append(w)
    return removed == D.n


def has_out_branching(D: Digraph) -> tuple[bool, frozenset[int]]:
    """Whether D has an out-branching; if so, the set of feasible roots.

    A digraph has an out-branching iff its condensation has a unique
    source component; roots are exactly that component's vertices.
    """
    if D.n == 0:
        return False, frozenset()
    scc = strong_components(D)
    if len(scc.source_components) != 1:
        return False, frozenset()
    (src,) = scc.source_components
    roots = frozenset(
        v for v in range(D.n) if scc.component_id[v] == src
    )
    return True, roots


def reachable_set(D: Digraph, v: int) -> set[int]:
    seen = {v}
    todo = [v]
    while todo:
        u = todo.pop()
        for w in D.out_adj[u]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def reachable_subdigraph(D: Digraph, v: int) -> tuple[Digraph, dict[int, int]]:
    """Induced subdigraph on the forward-reachable set of v, with label map."""
    if not (0 <= v < D.n):
        raise ValueError(f"vertex {v} out of range")
    return D.induced(sorted(reachable_set(D, v)))


def reachable_subdigraphs(D: Digraph) -> Iterator[tuple[Digraph, dict[int, int]]]:
    """reachable_subdigraph of the least vertex of each strong component,
    in vertex order.  All vertices of a component reach the same set, so
    these are all the distinct reachable subdigraphs of D: the out-trees
    of D are the out-branchings of these."""
    comp = strong_components(D).component_id
    seen: set[int] = set()
    for v in range(D.n):
        if comp[v] not in seen:
            seen.add(comp[v])
            yield reachable_subdigraph(D, v)


def in_class_L(D: Digraph) -> bool:
    """Sufficient condition for the leaf counts of out-trees and
    out-branchings to coincide: for every arc between distinct strong
    components R -> Q, every vertex of Q has an in-neighbor in R.
    """
    scc = strong_components(D)
    comp = scc.component_id
    members: dict[int, list[int]] = {}
    for v in range(D.n):
        members.setdefault(comp[v], []).append(v)
    for cr, cq in scc.condensation.arcs:
        r_set = set(members[cr])
        for q in members[cq]:
            if not any(u in r_set for u in D.in_adj[q]):
                return False
    return True


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on dense vertices 0..n-1, holding each
    edge once as an int pair (u, v) with u < v."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.pairs:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    @property
    def m(self) -> int:
        return len(self.pairs)


def underlying_graph(D: Digraph) -> Graph:
    """Undirected view: {u,v} present iff (u,v) or (v,u) is an arc."""
    return Graph(D.n, tuple({(u, v) if u < v else (v, u) for u, v in D.arcs}))
