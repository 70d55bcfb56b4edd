"""Verification campaigns: the cube-root leaf bound on dense strong
digraphs, the structural consequences of local optimality along link
paths, and decomposition width measurements."""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .branching import OutBranching, classify, leaf_count
from .decomposition import decompose_strong, validate_pd, layer_bound
from .digraph import Digraph, has_out_branching, is_strongly_connected, underlying_graph
from .generators import InstanceSpec, generate
from .local_search import _bfs_1ae, best_of_restarts, improve_to_1ae, is_1ae_optimal
from .oracles import BudgetExhausted, exact_max_leaf_branching, exact_max_leaf_tree


CSV_COLUMNS = [
    "family", "params", "seed", "n", "m", "check", "status",
    "search_leaves", "oracle_leaves", "bound", "width", "layers", "detail",
]


@dataclass
class Record:
    spec_label: str
    family: str
    params: str
    seed: int
    n: int
    m: int
    check: str
    status: str  # PASS | FAIL | SKIP
    search_leaves: Optional[int] = None
    oracle_leaves: Optional[int] = None
    bound: Optional[float] = None
    width: Optional[int] = None
    layers: Optional[int] = None
    detail: str = ""
    k: Optional[int] = None  # the target leaves of a widths record

    def repro_command(self, campaign: str) -> str:
        """The `maxleaf verify` command that reruns this record."""
        k = "" if self.k is None else f" --k {self.k}"
        return (f"maxleaf verify --campaign {campaign} "
                f"--family {self.family} --params '{self.params}' "
                f"--seed {self.seed}{k}")

    def row(self) -> list:
        return [self.family, self.params, self.seed, self.n, self.m,
                self.check, self.status, self.search_leaves,
                self.oracle_leaves, self.bound, self.width, self.layers,
                self.detail]


@dataclass
class Report:
    campaign: str
    records: list[Record] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.status != "FAIL" for r in self.records)

    def failures(self) -> list[Record]:
        return [r for r in self.records if r.status == "FAIL"]

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(CSV_COLUMNS)
        for r in self.records:
            w.writerow(r.row())
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps({
            "campaign": self.campaign,
            "passed": self.passed,
            "records": [dict(zip(CSV_COLUMNS, r.row()))
                        | {"repro": r.repro_command(self.campaign)}
                        for r in self.records],
        }, indent=2)


def _params(spec: InstanceSpec) -> str:
    """The params as `verify --params` reads them: ``n=8,pct=10``."""
    return ",".join(f"{k}={v}" for k, v in spec.params)


def _record(spec: InstanceSpec, D: Digraph, check: str) -> Record:
    """A SKIP record of one check on the digraph that spec generates."""
    return Record(spec.label(), spec.family, _params(spec), spec.seed,
                  D.n, D.m, check, "SKIP")


def cube_root_bound(n: int) -> float:
    return (n / 4.0) ** (1.0 / 3.0) - 1.0


def verify_bound_theorem2(specs: Sequence[InstanceSpec],
                          time_budget_ms: float = 60_000.0) -> Report:
    """Every strong digraph with min in-degree 3 (or oriented with min
    in-degree 2) must admit an out-branching with at least
    (n/4)^(1/3) - 1 leaves.  Witnessed by local search, escalating to
    the exact oracle only when the witness falls short."""
    report = Report("theorem2")
    for spec in specs:
        D = generate(spec)
        rec = _record(spec, D, "theorem2")
        eligible = is_strongly_connected(D) and (
            D.min_in_degree() >= 3
            or (D.is_oriented() and D.min_in_degree() >= 2))
        if not eligible:
            rec.detail = "precondition screening failed"
            report.records.append(rec)
            continue
        need = max(math.ceil(cube_root_bound(D.n)), 0)
        rec.bound = round(cube_root_bound(D.n), 4)
        # roots are tried one at a time: the first whose local optimum
        # meets the bound settles the instance (matters at n ~ 1000)
        T = None
        for root in range(D.n):
            cand = best_of_restarts(D, [root], 2, spec.seed)
            if T is None or leaf_count(cand) > leaf_count(T):
                T = cand
            if leaf_count(T) >= need:
                break
        rec.search_leaves = leaf_count(T)
        if rec.search_leaves >= need:
            rec.status = "PASS"
            rec.detail = "witnessed"
        else:
            try:
                val, _ = exact_max_leaf_branching(
                    D, time_budget_ms,
                    initial_lower_bound=(rec.search_leaves, T))
                rec.oracle_leaves = val
                rec.status = "PASS" if val >= need else "FAIL"
                rec.detail = "oracle" if rec.status == "PASS" else \
                    "oracle value below bound"
            except BudgetExhausted as e:
                rec.status = "SKIP"
                rec.detail = f"budget exhausted at lower bound {e.best_value}"
        report.records.append(rec)
    return report


def prune_to_in_degree_2(D: Digraph, T: OutBranching,
                         path: Sequence[int]) -> Digraph:
    """Trim non-tree arcs until every in-degree is exactly 2.

    Tree arcs are kept; double arcs of the designated path go first,
    then surplus in-arcs by lowest id.  Requires min in-degree >= 3, or
    >= 2 with no double arcs on the path.
    """
    tree = T.arcs()
    on_path = set(zip(path, path[1:]))
    doubles = {(b, a) for a, b in on_path if (b, a) in D.arcs} - tree
    arcs = set(D.arcs)
    for v in range(D.n):
        incoming = sorted(u for u in range(D.n) if (u, v) in arcs)
        keep = [u for u in incoming if (u, v) in tree]
        # doubles of the path are deleted first, so keep non-doubles first
        rest = sorted((u for u in incoming if (u, v) not in tree),
                      key=lambda u: (1 if (u, v) in doubles else 0, u))
        for u in rest:
            if len(keep) < 2:
                keep.append(u)
        if len(keep) < 2:
            raise ValueError(f"vertex {v} cannot reach in-degree 2")
        for u in incoming:
            if u not in keep:
                arcs.discard((u, v))
    return Digraph.build(D.n, arcs)


def verify_lemma2_structure(D: Digraph, T: OutBranching,
                            time_budget_ms: float = 60_000.0) -> Report:
    """Structural checks along the link paths of a certified locally
    optimal branching in an in-degree-2 digraph: no forward arcs into a
    link path's tail, backward arcs form vertex-disjoint out-trees,
    backward-arc paths are short, and n respects the cubic bound."""
    report = Report("lemma2")
    cert = is_1ae_optimal(D, T)
    if cert.status != "optimal":
        raise ValueError("branching is not certified 1-AE optimal")

    cls = classify(T)
    pos_global: dict[int, int] = {}
    k_ls = leaf_count(T)

    small = D.n <= 12
    ell = exact_max_leaf_tree(D, time_budget_ms) if small else None
    ls_val = exact_max_leaf_branching(D, time_budget_ms)[0] if small else None

    def rec(check: str, status: str, detail: str = "") -> None:
        report.records.append(Record(
            "adhoc", "adhoc", "", 0, D.n, D.m, check, status, detail=detail,
            search_leaves=k_ls, oracle_leaves=ls_val))

    for path in cls.link_paths:
        tail = path[1:]  # drop the first vertex
        pos = {v: i for i, v in enumerate(tail)}
        forward = [(u, v) for u, v in D.arcs
                   if u in pos and v in pos and pos[v] >= pos[u] + 2]
        rec("no_forward_arcs", "PASS" if not forward else "FAIL",
            f"path head {path[0]}: forward arcs {forward}" if forward else "")
        backward = [(u, v) for u, v in D.arcs
                    if u in pos and v in pos and pos[v] < pos[u]]
        in_deg: dict[int, int] = {}
        for _, v in backward:
            in_deg[v] = in_deg.get(v, 0) + 1
        disjoint = all(c <= 1 for c in in_deg.values())
        # acyclic by construction: backward arcs strictly decrease position
        rec("backward_out_trees_disjoint",
            "PASS" if disjoint else "FAIL",
            "" if disjoint else f"shared terminal in {in_deg}")
        if ell is not None:
            depth = _longest_path_length(backward)
            ok = depth <= max(ell - 1, 0)
            rec("backward_path_length", "PASS" if ok else "FAIL",
                f"longest {depth} vs out-tree optimum {ell}")
    if ls_val is not None:
        ok = D.n <= 4 * (ls_val + 1) ** 3
        rec("cubic_count", "PASS" if ok else "FAIL",
            f"n={D.n} vs 4(l+1)^3={4 * (ls_val + 1) ** 3}")
    return report


def verify_lemma2(specs: Sequence[InstanceSpec],
                  time_budget_ms: float = 60_000.0) -> Report:
    """The lemma-2 checks on each generated digraph, pruned to in-degree
    2 around the longest link path of its 1-AE descent from the BFS
    branching at its least root, then descended again."""
    report = Report("lemma2")
    for spec in specs:
        D = generate(spec)
        _, roots = has_out_branching(D)
        T = _bfs_1ae(D, min(roots))
        longest = max(classify(T).link_paths, key=len, default=())
        D2 = prune_to_in_degree_2(D, T, longest)
        for r in verify_lemma2_structure(D2, improve_to_1ae(D2, T),
                                         time_budget_ms).records:
            r.spec_label, r.family, r.params, r.seed = (
                spec.label(), spec.family, _params(spec), spec.seed)
            report.records.append(r)
    return report


def _longest_path_length(arcs: list[tuple[int, int]]) -> int:
    adj: dict[int, list[int]] = {}
    for u, v in arcs:
        adj.setdefault(u, []).append(v)
    memo: dict[int, int] = {}

    def depth(u: int) -> int:
        if u in memo:
            return memo[u]
        memo[u] = 1 + max((depth(v) for v in adj.get(u, [])), default=-1) \
            if adj.get(u) else 0
        return memo[u]

    verts = {x for a in arcs for x in a}
    return max((depth(u) for u in verts), default=0)


def verify_widths(specs: Sequence[InstanceSpec], k_values: Sequence[int]) -> Report:
    """Strong-digraph decompositions must validate and respect the
    layer-dependent width bound whenever no witness is produced."""
    report = Report("widths")
    for spec in specs:
        D = generate(spec)
        UN = underlying_graph(D)
        for k in k_values:
            rec = _record(spec, D, "widths")
            rec.k = k
            out = decompose_strong(D, k)
            if out.witness is not None:
                rec.status = "PASS"
                rec.search_leaves = leaf_count(out.witness)
                rec.detail = f"witness with >= {k} leaves"
                report.records.append(rec)
                continue
            pd = out.decomposition
            err = validate_pd(UN, pd)
            t = out.layers
            rec.width = pd.width
            rec.layers = t
            ok = (err is None and pd.width <= 2 * (t + 1.5) * k
                  and t <= layer_bound(k) and not out.diagnostics)
            rec.status = "PASS" if ok else "FAIL"
            rec.detail = err or "; ".join(out.diagnostics)
            report.records.append(rec)
    return report
