"""Command-line front end: series tables, single counts, verification sweeps.

Exit codes: 0 on success, 1 on a verification mismatch, 2 on a usage error
or violated precondition. Big integers are emitted as strings in JSON so no
consumer is tempted to parse them as floats.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from . import brute, verify
from .arrays import SubstructureGamma, SubstructureOmega, check_balance, check_full
from .exact import CycleCountVector
from .formulas import (
    gamma_count_formula,
    gamma_count_formula_noarrows,
    genus_counts,
    gs_series,
    gs_series_simplified,
    hz_series,
    omega_count_formula,
    vertical_count_formula,
)
from .transforms import CycleDetected, irreducible_closure


def _emit_series(counts: CycleCountVector, fmt: str) -> None:
    """The generating polynomial: each non-zero a_L at degree L."""
    coeffs = counts.tally()
    if fmt == "json":
        payload = {
            "basis": "monomial",
            "coeffs": {str(k): str(c) for k, c in coeffs.items()},
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print("degree,coefficient")
        for k in sorted(coeffs):
            print(f"{k},{coeffs[k]}")


def _emit_genus_table(table: dict[int, int], fmt: str) -> None:
    if fmt == "json":
        payload = {"genus_counts": {str(g): str(c) for g, c in table.items()}}
        print(json.dumps(payload, sort_keys=True))
    else:
        print("genus,count")
        for g in sorted(table):
            print(f"{g},{table[g]}")


def _emit_counts(counts: CycleCountVector, vertices: int, args: argparse.Namespace) -> int:
    """The genus table of a map count with ``vertices`` vertices, or its series."""
    if args.by_genus:
        _emit_genus_table(genus_counts(counts, vertices), args.format)
    else:
        _emit_series(counts, args.format)
    return 0


def _cmd_hz(args: argparse.Namespace) -> int:
    if args.method == "brute":
        counts = brute.hz_counts_brute(args.q)
    else:
        counts = hz_series(args.q).to_counts(args.q)
    return _emit_counts(counts, 1, args)


def _cmd_gs(args: argparse.Namespace) -> int:
    if args.method == "brute":
        counts = brute.gs_counts_brute(args.q1, args.q2, args.s)
    else:
        series = gs_series_simplified if args.method == "simplified" else gs_series
        counts = series(args.q1, args.q2, args.s).to_counts(args.q1 + args.q2 + args.s)
    return _emit_counts(counts, 2, args)


def _cmd_vertical(args: argparse.Namespace) -> int:
    if args.method == "brute":
        value = brute.vertical_array_count_brute(args.K, args.R1, args.R2, args.s)
    else:
        value = vertical_count_formula(args.K, args.R1, args.R2, args.s)
    print(value)
    return 0


def _cmd_count_gamma(args: argparse.Namespace) -> int:
    with open(args.spec, encoding="utf-8") as handle:
        g = SubstructureGamma.from_json(handle.read())
    if args.method == "brute":
        print(brute.gamma_count_brute(g))
        return 0
    reduced = irreducible_closure(g)
    if isinstance(reduced, CycleDetected):
        print(0)  # a cyclic arrow digraph admits no array
        return 0
    if reduced.arrows:
        value = gamma_count_formula(reduced)
    elif check_full(reduced) or check_balance(reduced):
        value = gamma_count_formula_noarrows(reduced)
    else:
        raise ValueError(
            "the closed form needs the full condition or a balanced occupancy; "
            "use --method brute"
        )
    print(value)
    return 0


def _cmd_count_omega(args: argparse.Namespace) -> int:
    with open(args.spec, encoding="utf-8") as handle:
        o = SubstructureOmega.from_json(handle.read())
    if args.method == "brute":
        value = brute.omega_count_brute(o)
    else:
        value = omega_count_formula(o)
    print(value)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.max_d < 1:
        raise ValueError(f"--max-d must be at least 1, got {args.max_d}")
    suites = list(verify.SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for name in suites:
        problems = verify.run_suite(name, max_d=args.max_d, seed=args.seed)
        if problems:
            failed = True
            print(f"FAIL {name}: {problems[0]}")
        else:
            print(f"PASS {name}")
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="mapenum",
        description="Exact genus-indexed map counts with brute-force certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    hz = sub.add_parser("hz", help="one-vertex map series")
    hz.add_argument("--q", type=int, required=True, help="number of edges (loops)")
    hz.add_argument("--method", choices=("formula", "brute"), default="formula")
    hz.add_argument("--by-genus", action="store_true")
    hz.add_argument("--format", choices=("json", "csv"), default="json")
    hz.set_defaults(func=_cmd_hz)

    gs = sub.add_parser("gs", help="two-vertex map series")
    gs.add_argument("--q1", type=int, required=True)
    gs.add_argument("--q2", type=int, required=True)
    gs.add_argument("--s", type=int, required=True)
    gs.add_argument("--method", choices=("formula", "simplified", "brute"), default="formula")
    gs.add_argument("--by-genus", action="store_true")
    gs.add_argument("--format", choices=("json", "csv"), default="json")
    gs.set_defaults(func=_cmd_gs)

    vertical = sub.add_parser("vertical", help="proper vertical array count")
    vertical.add_argument("--K", type=int, required=True)
    vertical.add_argument("--R1", type=int, required=True)
    vertical.add_argument("--R2", type=int, required=True)
    vertical.add_argument("--s", type=int, required=True)
    vertical.add_argument("--method", choices=("formula", "brute"), default="formula")
    vertical.set_defaults(func=_cmd_vertical)

    gamma = sub.add_parser("count-gamma", help="count arrays satisfying a substructure")
    gamma.add_argument("--spec", required=True, help="substructure JSON file")
    gamma.add_argument("--method", choices=("formula", "brute"), default="formula")
    gamma.set_defaults(func=_cmd_count_gamma)

    omega = sub.add_parser("count-omega", help="count arrays for a balanced occupancy")
    omega.add_argument("--spec", required=True, help="occupancy JSON file")
    omega.add_argument("--method", choices=("formula", "brute"), default="formula")
    omega.set_defaults(func=_cmd_count_omega)

    ver = sub.add_parser("verify", help="run oracle-equality sweeps")
    ver.add_argument("--suite", choices=verify.SUITES + ("all",), default="all")
    ver.add_argument("--max-d", dest="max_d", type=int, default=4)
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
