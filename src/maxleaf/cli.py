"""Command-line surface tying generators, solvers, decomposition and the
verification campaigns together.

Exit codes: 0 success / Yes, 1 No, 2 usage or input-format error,
3 budget exhausted, 4 internal assertion or any other internal error.
Machine-readable output goes to stdout, diagnostics to stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

from . import branching, digraph
from .branching import OutBranching, leaf_count
from .decomposition import (
    PathDecomposition,
    decompose_acyclic,
    decompose_strong,
    validate_pd,
)
from .digraph import Digraph, underlying_graph
from .fpt import decide_k_dmlob
from .generators import InstanceSpec, gen_ht, generate
from .harness import (
    Report,
    prune_to_in_degree_2,
    verify_bound_theorem2,
    verify_lemma2_structure,
    verify_widths,
)
from .local_search import best_of_restarts, improve_to_1ae, is_1ae_optimal, bfs_branching
from .oracles import BudgetExhausted, exact_max_leaf_branching

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_ASSERT = 4


def default_budget_ms() -> float:
    return float(os.environ.get("MAXLEAF_TIME_BUDGET_MS", "60000"))


def _read_digraph(path: str) -> Digraph:
    with open(path, "r", encoding="utf-8") as f:
        return digraph.parse(f.read())


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="maxleaf")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate an instance")
    g.add_argument("--family", required=True,
                   choices=["ht", "random_strong", "random_strong_min_in3",
                            "random_dag_single_source", "random_digraph"])
    g.add_argument("--t", type=int)
    g.add_argument("--n", type=int)
    g.add_argument("--pct", type=int, help="arc density percent")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", help="output file (default stdout)")

    s = sub.add_parser("solve", help="maximum-leaf out-branching")
    mode = s.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--local", action="store_true")
    mode.add_argument("--fpt", action="store_true")
    s.add_argument("--k", type=int, help="target leaves (fpt mode)")
    s.add_argument("--time-budget-ms", type=float, default=None)
    s.add_argument("--seed", type=int, default=0, help="restart seed (--local)")
    s.add_argument("graph")

    d = sub.add_parser("decompose", help="path decomposition construction")
    d.add_argument("--mode", required=True, choices=["acyclic", "strong"])
    d.add_argument("--k", type=int, required=True)
    d.add_argument("--out", help=".pd output file (default stdout)")
    d.add_argument("graph")

    c = sub.add_parser("check", help="validate artifacts")
    what = c.add_mutually_exclusive_group(required=True)
    what.add_argument("--branching", action="store_true")
    what.add_argument("--pd", action="store_true")
    what.add_argument("--1ae", dest="one_ae", action="store_true")
    c.add_argument("graph")
    c.add_argument("artifact")

    v = sub.add_parser("verify", help="bound verification campaigns")
    v.add_argument("--campaign", required=True,
                   choices=["theorem2", "lemma2", "widths"])
    v.add_argument("--count", type=int, default=20)
    v.add_argument("--n-min", type=int, default=8)
    v.add_argument("--n-max", type=int, default=60)
    v.add_argument("--k", type=int, default=3)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--family", default=None)
    v.add_argument("--params", default=None)
    v.add_argument("--time-budget-ms", type=float, default=None)
    v.add_argument("--out", help="prefix for CSV/JSON report files")

    b = sub.add_parser("bench", help="timings on the extremal family")
    b.add_argument("--t", type=int, default=6)
    b.add_argument("--time-budget-ms", type=float, default=None)
    return ap


def _cmd_gen(args) -> int:
    params = []
    if args.family == "ht":
        if args.t is None:
            print("gen: --t required for family ht", file=sys.stderr)
            return EXIT_USAGE
        params.append(("t", args.t))
    else:
        if args.n is None:
            print("gen: --n required", file=sys.stderr)
            return EXIT_USAGE
        params.append(("n", args.n))
        if args.pct is not None:
            params.append(("pct", args.pct))
    D = generate(InstanceSpec(args.family, tuple(params), args.seed))
    text = digraph.serialize(D)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_solve(args) -> int:
    D = _read_digraph(args.graph)
    budget = args.time_budget_ms if args.time_budget_ms is not None else default_budget_ms()
    if args.exact:
        try:
            value, T = exact_max_leaf_branching(D, budget)
        except BudgetExhausted as e:
            print(json.dumps({"status": "budget", "lower_bound": e.best_value}))
            return EXIT_BUDGET
        out = {"leaves": value, "witness": None}
        if T is not None:
            out["witness"] = json.loads(T.to_json())
        print(json.dumps(out))
        return EXIT_OK
    if args.local:
        ok, roots = digraph.has_out_branching(D)
        if not ok:
            print(json.dumps({"leaves": 0, "witness": None}))
            return EXIT_NO
        T = best_of_restarts(D, roots, 2, args.seed)
        print(json.dumps({"leaves": leaf_count(T),
                          "witness": json.loads(T.to_json())}))
        return EXIT_OK
    if args.k is None:
        print("solve: --k required with --fpt", file=sys.stderr)
        return EXIT_USAGE
    try:
        dec = decide_k_dmlob(D, args.k,
                             deadline=time.monotonic() + budget / 1000.0)
    except BudgetExhausted as e:
        print(json.dumps({"status": "budget", "lower_bound": e.best_value}))
        return EXIT_BUDGET
    print(json.dumps(dec.to_dict()))
    if dec.answer == "yes":
        return EXIT_OK
    if dec.answer == "no":
        return EXIT_NO
    return EXIT_USAGE


def _cmd_decompose(args) -> int:
    D = _read_digraph(args.graph)
    if args.mode == "acyclic":
        out = decompose_acyclic(D, args.k)
    else:
        out = decompose_strong(D, args.k)
    for diag in out.diagnostics:
        print(f"diagnostic: {diag}", file=sys.stderr)
    if out.witness is not None:
        print(json.dumps({"kind": "witness",
                          "leaves": leaf_count(out.witness),
                          "witness": json.loads(out.witness.to_json())}))
        return EXIT_OK
    text = out.decomposition.to_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
        print(json.dumps({"kind": "decomposition",
                          "width": out.decomposition.width,
                          "layers": out.layers, "file": args.out}))
    else:
        sys.stdout.write(text)
    return EXIT_ASSERT if out.diagnostics else EXIT_OK


def _cmd_check(args) -> int:
    D = _read_digraph(args.graph)
    with open(args.artifact, "r", encoding="utf-8") as f:
        text = f.read()
    if args.pd:
        pd = (PathDecomposition.from_json(text) if text.lstrip().startswith("{")
              else PathDecomposition.from_text(text))
        err = validate_pd(underlying_graph(D), pd)
        if err:
            print(f"invalid: {err}", file=sys.stderr)
            return EXIT_USAGE
        print(json.dumps({"valid": True, "width": pd.width}))
        return EXIT_OK
    T = OutBranching.from_json(text, D.n)
    err = branching.validate(D, T)
    if err:
        print(f"invalid: {err}", file=sys.stderr)
        return EXIT_USAGE
    if args.one_ae:
        cert = is_1ae_optimal(D, T)
        out = {"valid": True, "status": cert.status}
        if cert.violating_move is not None:
            out["violating_move"] = {
                "removed": sorted(cert.violating_move.removed),
                "added": sorted(cert.violating_move.added),
            }
        print(json.dumps(out))
        return EXIT_OK if cert.status == "optimal" else EXIT_NO
    print(json.dumps({"valid": True, "leaves": leaf_count(T)}))
    return EXIT_OK


def _theorem2_specs(args) -> list[InstanceSpec]:
    specs = []
    for i in range(args.count):
        n = args.n_min + (args.n_max - args.n_min) * i // max(args.count - 1, 1)
        specs.append(InstanceSpec("random_strong_min_in3",
                                  (("n", max(n, 4)),), args.seed + i))
    return specs


def _cmd_verify(args) -> int:
    budget = args.time_budget_ms if args.time_budget_ms is not None else default_budget_ms()
    if args.campaign == "theorem2":
        if args.family and args.params:
            params = tuple(
                (kv.split("=")[0], int(kv.split("=")[1]))
                for kv in args.params.split(",") if kv)
            specs = [InstanceSpec(args.family, params, args.seed)]
        else:
            specs = _theorem2_specs(args)
        report = verify_bound_theorem2(specs, budget)
    elif args.campaign == "widths":
        specs = [InstanceSpec("random_strong",
                              (("n", args.n_min + (args.n_max - args.n_min)
                                * i // max(args.count - 1, 1)), ("pct", 10)),
                              args.seed + i)
                 for i in range(args.count)]
        report = verify_widths(specs, [args.k])
    else:  # lemma2
        report = Report("lemma2")
        for i in range(args.count):
            n = max(args.n_min, 6)
            spec = InstanceSpec("random_strong_min_in3", (("n", n),),
                                args.seed + i)
            D = generate(spec)
            _, roots = digraph.has_out_branching(D)
            T = improve_to_1ae(D, bfs_branching(D, min(roots)))
            from .branching import classify
            paths = classify(T).link_paths
            longest = max(paths, key=len, default=())
            D2 = prune_to_in_degree_2(D, T, longest)
            T2 = improve_to_1ae(D2, T)
            sub = verify_lemma2_structure(D2, T2, budget)
            report.records.extend(sub.records)

    if args.out:
        with open(args.out + ".csv", "w", encoding="utf-8") as f:
            f.write(report.to_csv())
        with open(args.out + ".json", "w", encoding="utf-8") as f:
            f.write(report.to_json())
    print(report.to_json())
    return EXIT_OK if report.passed else EXIT_NO


def _cmd_bench(args) -> int:
    budget = args.time_budget_ms if args.time_budget_ms is not None else default_budget_ms()
    D = gen_ht(args.t)
    t0 = time.monotonic()
    _, roots = digraph.has_out_branching(D)
    T = best_of_restarts(D, roots, 1, 0)
    t1 = time.monotonic()
    row = {"t": args.t, "n": D.n, "m": D.m,
           "local_search_leaves": leaf_count(T),
           "local_search_s": round(t1 - t0, 3)}
    try:
        value, _ = exact_max_leaf_branching(
            D, budget, initial_lower_bound=(leaf_count(T), T))
        row["oracle_leaves"] = value
        row["oracle_s"] = round(time.monotonic() - t1, 3)
    except BudgetExhausted as e:
        row["oracle_leaves"] = None
        row["oracle_lower_bound"] = e.best_value
    print(json.dumps(row))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        if args.cmd == "gen":
            return _cmd_gen(args)
        if args.cmd == "solve":
            return _cmd_solve(args)
        if args.cmd == "decompose":
            return _cmd_decompose(args)
        if args.cmd == "check":
            return _cmd_check(args)
        if args.cmd == "verify":
            return _cmd_verify(args)
        if args.cmd == "bench":
            return _cmd_bench(args)
        return EXIT_USAGE
    except (ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExhausted as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except AssertionError as e:
        print(f"internal assertion: {e}", file=sys.stderr)
        return EXIT_ASSERT
    except Exception:
        # exit 1 means "no": a crash, MemoryError included, must not read as one
        traceback.print_exc(file=sys.stderr)
        return EXIT_ASSERT


if __name__ == "__main__":
    sys.exit(main())
