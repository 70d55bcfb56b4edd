"""Out-branchings and out-trees with leaf/link/branch classification."""
from __future__ import annotations

import json
from dataclasses import dataclass

from .digraph import Digraph, FormatError, int_token


@dataclass(frozen=True)
class OutBranching:
    """Rooted spanning out-tree given by a parent assignment.

    ``parent[v]`` is the unique tree in-neighbor of v; the root has no
    entry.  Spans vertices 0..n-1 of its host digraph.
    """

    n: int
    root: int
    parent: tuple[int, ...]  # parent[root] == -1

    @staticmethod
    def from_parent_map(n: int, root: int, parent: dict[int, int]) -> "OutBranching":
        arr = [-1] * n
        for v, p in parent.items():
            arr[v] = p
        return OutBranching(n, root, tuple(arr))

    @property
    def vertices(self) -> range:
        return range(self.n)

    def arcs(self) -> set[tuple[int, int]]:
        return {(self.parent[v], v) for v in range(self.n) if v != self.root}

    def children(self) -> list[list[int]]:
        ch: list[list[int]] = [[] for _ in range(self.n)]
        for v in range(self.n):
            if v != self.root and self.parent[v] >= 0:
                ch[self.parent[v]].append(v)
        return ch

    def out_degrees(self) -> list[int]:
        deg = [0] * self.n
        for v in range(self.n):
            if v != self.root and self.parent[v] >= 0:
                deg[self.parent[v]] += 1
        return deg

    def depths(self) -> list[int]:
        """Distance from root along tree arcs; -1 if unreachable."""
        d = [-1] * self.n
        d[self.root] = 0
        order = [self.root]
        ch = self.children()
        i = 0
        while i < len(order):
            u = order[i]
            i += 1
            for w in ch[u]:
                d[w] = d[u] + 1
                order.append(w)
        return d

    def to_dict(self) -> dict:
        return {"root": self.root,
                "parent": {str(v): self.parent[v] for v in range(self.n)
                           if v != self.root}}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @staticmethod
    def from_json(text: str, n: int) -> "OutBranching":
        """Parse ``{"root": r, "parent": {"v": p, ...}}`` over vertices
        0..n-1, each key the decimal form ``str(v)``; raises FormatError
        when the document does not fit that schema.  Whether the arcs form
        an out-branching of a host digraph is left to ``validate``."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise FormatError(f"invalid JSON: {e}") from e
        if not isinstance(doc, dict) or not isinstance(doc.get("parent"), dict) \
                or "root" not in doc:
            raise FormatError('branching JSON must have keys "root" and "parent" (an object)')
        root = _vertex(doc["root"], n, "root")
        parent: dict[int, int] = {}
        for key, p in doc["parent"].items():
            try:
                v = int_token(key)
            except ValueError:
                raise FormatError(f"parent key {key!r} is not a vertex") from None
            v = _vertex(v, n, "parent key")
            if v in parent:
                raise FormatError(f"vertex {v} has two parent entries")
            parent[v] = _vertex(p, n, f"parent of {v}")
        return OutBranching.from_parent_map(n, root, parent)


def _vertex(x, n: int, what: str) -> int:
    if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < n:
        raise FormatError(f"{what} {x!r} is not a vertex in 0..{n - 1}")
    return x


@dataclass(frozen=True)
class OutTree:
    """Out-tree on a subset of a host digraph's vertices."""

    vertices: frozenset[int]
    root: int
    parent: dict[int, int]  # keys = vertices minus root

    def arcs(self) -> set[tuple[int, int]]:
        return {(p, v) for v, p in self.parent.items()}

    def leaf_set(self) -> set[int]:
        with_children = set(self.parent.values())
        return {v for v in self.vertices if v not in with_children and v != self.root} \
            if len(self.vertices) > 1 else set()

    def leaf_count(self) -> int:
        return len(self.leaf_set())


@dataclass(frozen=True)
class Classification:
    """Partition of tree vertices by out-degree 0 / 1 / >= 2."""

    leaves: frozenset[int]
    links: frozenset[int]
    branches: frozenset[int]
    link_paths: tuple[tuple[int, ...], ...]  # maximal directed link-vertex paths
    first_vertices: frozenset[int]


class BranchingError(ValueError):
    pass


def validate(D: Digraph, T: OutBranching) -> str | None:
    """None when T is a valid out-branching of D, else a violation message."""
    if T.n != D.n:
        return f"vertex count mismatch: tree {T.n}, host {D.n}"
    if not (0 <= T.root < D.n):
        return f"root {T.root} out of range"
    if T.parent[T.root] != -1:
        return f"root {T.root} has a parent"
    for v in range(T.n):
        if v == T.root:
            continue
        p = T.parent[v]
        if p < 0:
            return f"non-root vertex {v} has no parent"
        if not (0 <= p < D.n):
            return f"parent {p} of {v} out of range"
        if (p, v) not in D.arcs:
            return f"non-host arc ({p}, {v})"
    # walk up from each v in turn, marking the walk with v; every vertex
    # below v is marked done, so v is the least unreachable vertex when
    # its walk meets its own mark (a cycle) before a done vertex
    done = T.n
    mark = [-1] * T.n
    mark[T.root] = done
    for v in range(T.n):
        u = v
        while mark[u] != done:
            if mark[u] == v:
                return f"unreachable from root: vertex {v}"
            mark[u] = v
            u = T.parent[u]
        u = v
        while mark[u] == v:
            mark[u] = done
            u = T.parent[u]
    return None


def require_valid(D: Digraph, T: OutBranching) -> None:
    msg = validate(D, T)
    if msg is not None:
        raise BranchingError(msg)


def classify(T: OutBranching) -> Classification:
    """Leaf/link/branch partition plus maximal link-vertex paths.

    Paths are ordered by (depth of first vertex, first vertex id).
    """
    deg = T.out_degrees()
    leaves = frozenset(v for v in range(T.n) if deg[v] == 0)
    links = frozenset(v for v in range(T.n) if deg[v] == 1)
    branches = frozenset(v for v in range(T.n) if deg[v] >= 2)
    ch = T.children()

    paths: list[tuple[int, ...]] = []
    on_path: set[int] = set()
    for v in sorted(links):
        if v in on_path:
            continue
        # walk up to the first link vertex of this maximal run
        first = v
        while (
            first != T.root
            and T.parent[first] in links
        ):
            first = T.parent[first]
        path = [first]
        on_path.add(first)
        cur = first
        while ch[cur] and ch[cur][0] in links:
            cur = ch[cur][0]
            path.append(cur)
            on_path.add(cur)
        paths.append(tuple(path))

    depths = T.depths()
    paths.sort(key=lambda p: (depths[p[0]], p[0]))
    firsts = frozenset(p[0] for p in paths)

    cls = Classification(leaves, links, branches, tuple(paths), firsts)
    assert_counting_facts(cls)
    return cls


def assert_counting_facts(cls: Classification) -> None:
    """Branch count <= leaves - 1 and link-path count <= 2*leaves - 1.

    Holds for every out-branching with at least one leaf.
    """
    nl = len(cls.leaves)
    if nl == 0:
        return
    assert len(cls.branches) <= nl - 1, "branch count exceeds leaves - 1"
    assert len(cls.link_paths) <= 2 * nl - 1, "link-path count exceeds 2*leaves - 1"


def leaf_count(T: OutBranching) -> int:
    """Number of out-degree-0 vertices; 0 for the single-vertex tree."""
    if T.n <= 1:
        return 0
    deg = T.out_degrees()
    return sum(1 for v in range(T.n) if deg[v] == 0)


def leaf_set(T: OutBranching) -> set[int]:
    if T.n <= 1:
        return set()
    deg = T.out_degrees()
    return {v for v in range(T.n) if deg[v] == 0}
