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
from .digraph import Digraph, int_token, underlying_graph
from .fpt import decide_k_dmlob
from .generators import FAMILY_PARAMS, InstanceSpec, generate
from .harness import verify_bound_theorem2, verify_lemma2, verify_widths
from .local_search import best_of_restarts, is_1ae_optimal
from .oracles import BudgetExhausted, exact_max_leaf_branching

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_ASSERT = 4


def budget_ms(text: str) -> float:
    """A time budget in ms.  NaN is refused, since no deadline comparison
    with it is ever true, and so is a negative budget."""
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"time budget {text!r} is not a number of ms >= 0")
    return value


def _read_digraph(path: str) -> Digraph:
    with open(path, "r", encoding="utf-8") as f:
        return digraph.parse(f.read())


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="maxleaf")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate an instance")
    g.add_argument("--family", required=True, choices=list(FAMILY_PARAMS))
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
    # a string default goes through type too, so the variable is checked
    budget = os.environ.get("MAXLEAF_TIME_BUDGET_MS", "60000")
    s.add_argument("--time-budget-ms", type=budget_ms, default=budget)
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
    v.add_argument("--time-budget-ms", type=budget_ms, default=budget)
    v.add_argument("--out", help="prefix for CSV/JSON report files")
    return ap


def _cmd_gen(args) -> int:
    required, optional = FAMILY_PARAMS[args.family]
    params = []
    for key in ("t", "n", "pct"):
        value = getattr(args, key)
        if value is None:
            if key in required:
                raise ValueError(f"gen: --{key} required for family {args.family}")
        elif key in required + optional:
            params.append((key, value))
        else:
            raise ValueError(f"gen: --{key} is not read by family {args.family}")
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
    if args.fpt and args.k is None:
        print("solve: --k required with --fpt", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _solve(args, D)
    except BudgetExhausted as e:
        print(json.dumps({"status": "budget", "lower_bound": e.best_value}))
        return EXIT_BUDGET


def _solve(args, D: Digraph) -> int:
    deadline = time.monotonic() + args.time_budget_ms / 1000.0
    if args.exact:
        value, T = exact_max_leaf_branching(D, args.time_budget_ms)
        out = {"leaves": value, "witness": None}
        if T is not None:
            out["witness"] = T.to_dict()
        print(json.dumps(out))
        return EXIT_OK
    if args.local:
        ok, roots = digraph.has_out_branching(D)
        if not ok:
            print(json.dumps({"leaves": 0, "witness": None}))
            return EXIT_NO
        T = best_of_restarts(D, roots, 2, args.seed, deadline)
        print(json.dumps({"leaves": leaf_count(T),
                          "witness": T.to_dict()}))
        return EXIT_OK
    dec = decide_k_dmlob(D, args.k, deadline=deadline)
    print(json.dumps(dec.to_dict()))
    return EXIT_OK if dec.answer == "yes" else EXIT_NO


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
                          "witness": out.witness.to_dict()}))
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
                "removed": [cert.violating_move.removed],
                "added": [cert.violating_move.added],
            }
        print(json.dumps(out))
        return EXIT_OK if cert.status == "optimal" else EXIT_NO
    print(json.dumps({"valid": True, "leaves": leaf_count(T)}))
    return EXIT_OK


def _verify_specs(args) -> list[InstanceSpec]:
    """The one spec that --family and --params name, else the campaign's
    sweep of --count seeds with n spread over --n-min..--n-max."""
    if args.count < 1:
        raise ValueError(f"verify: --count must be at least 1, got {args.count}")
    if bool(args.family) != bool(args.params):
        raise ValueError("verify: --family and --params must be given together")
    if args.family:
        if args.family not in FAMILY_PARAMS:
            raise ValueError(f"verify: unknown family {args.family!r}")
        required, optional = FAMILY_PARAMS[args.family]
        params: dict[str, int] = {}
        for kv in filter(None, args.params.split(",")):
            key, _, val = kv.partition("=")
            try:
                value = int_token(val)
            except ValueError:
                raise ValueError(
                    f"verify: --params pair {kv!r} is not key=integer") from None
            if key in params:
                raise ValueError(f"verify: --params key {key!r} is repeated")
            if key not in required + optional:
                raise ValueError(
                    f"verify: --params key {key!r} is unknown for family "
                    f"{args.family} (keys: {', '.join(required + optional)})")
            params[key] = value
        for key in required:
            if key not in params:
                raise ValueError(
                    f"verify: --params key {key!r} is missing for family {args.family}")
        return [InstanceSpec(args.family, tuple(params.items()), args.seed)]
    specs = []
    for i in range(args.count):
        n = args.n_min + (args.n_max - args.n_min) * i // max(args.count - 1, 1)
        family, params = {  # lemma2 runs every instance at the least n
            "theorem2": ("random_strong_min_in3", (("n", max(n, 4)),)),
            "widths": ("random_strong", (("n", n), ("pct", 10))),
            "lemma2": ("random_strong_min_in3", (("n", max(args.n_min, 6)),)),
        }[args.campaign]
        specs.append(InstanceSpec(family, params, args.seed + i))
    return specs


def _cmd_verify(args) -> int:
    specs = _verify_specs(args)
    if args.campaign == "theorem2":
        report = verify_bound_theorem2(specs, args.time_budget_ms)
    elif args.campaign == "widths":
        report = verify_widths(specs, [args.k])
    else:
        report = verify_lemma2(specs, args.time_budget_ms)

    if args.out:
        with open(args.out + ".csv", "w", encoding="utf-8") as f:
            f.write(report.to_csv())
        with open(args.out + ".json", "w", encoding="utf-8") as f:
            f.write(report.to_json())
    print(report.to_json())
    return EXIT_OK if report.passed else EXIT_NO


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
