"""Seeded instance generators, including the quadratic-order extremal
family of strong digraphs with minimum in-degree 3 and few leaves.

All randomness goes through a small explicit linear congruential
generator so the same spec yields byte-identical instances on any
platform.
"""
from __future__ import annotations

from dataclasses import dataclass

from .digraph import Digraph, is_strongly_connected


class Lcg:
    """64-bit linear congruential generator (Knuth's MMIX constants)."""

    MULT = 6364136223846793005
    INC = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = (seed ^ 0x9E3779B97F4A7C15) & self.MASK
        for _ in range(4):
            self._next()

    def _next(self) -> int:
        self.state = (self.state * self.MULT + self.INC) & self.MASK
        return self.state >> 16

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        return lo + self._next() % (hi - lo + 1)

    def chance(self, num: int, den: int) -> bool:
        """True with probability num/den."""
        return self._next() % den < num

    def shuffle(self, xs: list) -> None:
        for i in range(len(xs) - 1, 0, -1):
            j = self.randint(0, i)
            xs[i], xs[j] = xs[j], xs[i]


@dataclass(frozen=True)
class InstanceSpec:
    family: str  # ht | random_strong | random_strong_min_in3 | random_dag_single_source | random_digraph
    params: tuple[tuple[str, int], ...]
    seed: int = 0

    def param(self, name: str) -> int:
        for k, v in self.params:
            if k == name:
                return v
        raise KeyError(name)

    def label(self) -> str:
        ps = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.family}({ps};seed={self.seed})"


# family -> (required parameter names, optional parameter names)
FAMILY_PARAMS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "ht": (("t",), ()),
    "random_strong": (("n",), ("pct",)),
    "random_strong_min_in3": (("n",), ()),
    "random_dag_single_source": (("n",), ("pct",)),
    "random_digraph": (("n",), ("pct",)),
}


def generate(spec: InstanceSpec) -> Digraph:
    if spec.family == "ht":
        return gen_ht(spec.param("t"))
    if spec.family == "random_strong":
        return gen_random_strong(spec.param("n"), spec.seed,
                                 spec.param("pct") if _has(spec, "pct") else 20)
    if spec.family == "random_strong_min_in3":
        return gen_random_strong_min_in3(spec.param("n"), spec.seed)
    if spec.family == "random_dag_single_source":
        return gen_random_dag_single_source(
            spec.param("n"), spec.seed,
            spec.param("pct") if _has(spec, "pct") else 25)
    if spec.family == "random_digraph":
        return gen_random_digraph(spec.param("n"), spec.seed,
                                  spec.param("pct") if _has(spec, "pct") else 30)
    raise ValueError(f"unknown family {spec.family!r}")


def _has(spec: InstanceSpec, name: str) -> bool:
    return any(k == name for k, _ in spec.params)


def ht_vertex(t: int, i: int, j: int) -> int:
    """Vertex id for u^i_j; j = 0 is the hub r for every spoke i."""
    if j == 0:
        return 0
    return 1 + (i - 1) * t + (j - 1)


def gen_ht(t: int) -> Digraph:
    """Strong digraph of order t^2 + 1 with min in-degree 3 whose
    out-branchings all have few leaves.

    Each of t spokes is a bidirected path from the hub, with two-step
    back-jumps and a complete digraph on the last four spoke vertices.
    """
    if t < 6:
        raise ValueError(f"family requires t >= 6, got {t}")
    n = t * t + 1
    arcs: set[tuple[int, int]] = set()
    for i in range(1, t + 1):
        for j in range(0, t - 2):  # j in {0..t-3}
            a, b = ht_vertex(t, i, j), ht_vertex(t, i, j + 1)
            arcs.add((a, b))
            arcs.add((b, a))
        for j in range(3, t - 1):  # j in {3..t-2}
            arcs.add((ht_vertex(t, i, j), ht_vertex(t, i, j - 2)))
        for j in range(t - 3, t + 1):
            for q in range(t - 3, t + 1):
                if j != q:
                    arcs.add((ht_vertex(t, i, j), ht_vertex(t, i, q)))
    D = Digraph.build(n, arcs)
    assert D.n == n
    assert is_strongly_connected(D), "family instance must be strong"
    assert D.min_in_degree() >= 3, "family instance must have min in-degree 3"
    return D


def _require_pct(pct: int) -> None:
    if not 0 <= pct <= 100:
        raise ValueError(f"pct must be in 0..100, got {pct}")


def gen_random_strong(n: int, seed: int, pct: int = 20) -> Digraph:
    """Strongly connected: random Hamiltonian cycle plus extra arcs with
    probability pct/100."""
    if n < 2:
        raise ValueError("n >= 2 required")
    _require_pct(pct)
    rng = Lcg(seed * 2654435761 + n)
    perm = list(range(n))
    rng.shuffle(perm)
    arcs = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
    for u in range(n):
        for v in range(n):
            if u != v and (u, v) not in arcs and rng.chance(pct, 100):
                arcs.add((u, v))
    return Digraph.build(n, arcs)


def gen_random_strong_min_in3(n: int, seed: int) -> Digraph:
    """Strongly connected with every in-degree at least 3."""
    if n < 4:
        raise ValueError("n >= 4 required")
    rng = Lcg(seed * 2654435761 + n * 97)
    perm = list(range(n))
    rng.shuffle(perm)
    arcs = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
    in_deg = {v: 0 for v in range(n)}
    for _, v in arcs:
        in_deg[v] += 1
    for v in range(n):
        while in_deg[v] < 3:
            u = rng.randint(0, n - 1)
            if u != v and (u, v) not in arcs:
                arcs.add((u, v))
                in_deg[v] += 1
    D = Digraph.build(n, arcs)
    assert is_strongly_connected(D) and D.min_in_degree() >= 3
    return D


def gen_random_dag_single_source(n: int, seed: int, pct: int = 25) -> Digraph:
    """Acyclic with vertex 0 the unique in-degree-zero vertex.

    Arcs only go from lower to higher index; every other vertex gets at
    least one in-arc.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    _require_pct(pct)
    rng = Lcg(seed * 2654435761 + n * 1013)
    arcs: set[tuple[int, int]] = set()
    for v in range(1, n):
        for u in range(v):
            if rng.chance(pct, 100):
                arcs.add((u, v))
        if not any(a[1] == v for a in arcs):
            arcs.add((rng.randint(0, v - 1), v))
    return Digraph.build(n, arcs)


def gen_random_digraph(n: int, seed: int, pct: int = 30) -> Digraph:
    """Each ordered pair becomes an arc independently with probability
    pct/100; no structural guarantees."""
    if n < 1:
        raise ValueError("n >= 1 required")
    _require_pct(pct)
    rng = Lcg(seed * 2654435761 + n * 3121)
    arcs = {(u, v) for u in range(n) for v in range(n)
            if u != v and rng.chance(pct, 100)}
    return Digraph.build(n, arcs)
