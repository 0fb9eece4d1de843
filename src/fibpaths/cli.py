"""Command-line interface.

    fibpaths seq     print one family's counts by one method
    fibpaths tables  recompute the published tables and diff them
    fibpaths verify  check every method against `closed`, and `closed`
                     against the published rows for k <= 4 (PASS: all agree)

Exit codes: 0 success, 1 verification mismatch, 2 usage error (a size
too large for memory included), 4 internal inconsistency (negative count,
non-integral or singular results); exit code 3 is not used.
Output is deterministic; JSON carries counts as decimal strings since they
outgrow doubles quickly.
"""

from __future__ import annotations

import argparse
import sys

from . import brute, families, tables
from ._checks import check_k, check_size
from .automata import SingularSystem
from .brute import BudgetExceeded
from .families import FAMILIES, METHODS, NonIntegralResult
from .series import SeriesError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INTERNAL = 4


def _checked(check, *names):
    """argparse type: an int that `check` accepts; a refusal exits 2."""
    def parse(text: str) -> int:
        try:
            return check(*names, int(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


_positive_int = _checked(check_k)
_nonneg_int = _checked(check_size, "value")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibpaths",
        description="Count Fibonacci-colored Motzkin path families by "
        "independent exact methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seq = sub.add_parser("seq", help="print counts for n = 0..N")
    seq.add_argument("--family", required=True, choices=FAMILIES)
    seq.add_argument("--k", required=True, type=_positive_int,
                     help="number of colors of a unit horizontal step")
    seq.add_argument("--n", required=True, type=_nonneg_int,
                     help="largest path length to report")
    seq.add_argument("--method", choices=METHODS, default="closed")
    seq.add_argument("--depth", type=_nonneg_int, default=None,
                     help="truncation depth for cf/automaton (default: exact)")
    seq.add_argument("--format", choices=("text", "json", "csv"), default="text")
    seq.add_argument("--header", action="store_true",
                     help="emit a header row of path lengths (csv only)")
    seq.set_defaults(func=cmd_seq, refuse=seq.error)

    tab = sub.add_parser("tables", help="recompute the published tables")
    tab.add_argument("--json", action="store_true", dest="as_json")
    tab.set_defaults(func=cmd_tables, refuse=tab.error)

    ver = sub.add_parser("verify", help="cross-check all methods")
    one_k = ver.add_mutually_exclusive_group()
    one_k.add_argument("--k-max", type=_positive_int, default=4)
    one_k.add_argument("--k", type=_positive_int, default=None,
                       help="restrict to one k")
    ver.add_argument("--n-max", type=_nonneg_int, default=40)
    ver.add_argument("--brute-max", type=_nonneg_int, default=10,
                     help="largest length checked by brute-force enumeration")
    ver.add_argument("--depth", type=_nonneg_int, default=None)
    ver.add_argument("--family", choices=FAMILIES, default=None,
                     help="restrict to one family")
    ver.set_defaults(func=cmd_verify, refuse=ver.error)
    return parser


def cmd_seq(args) -> int:
    if args.header and args.format != "csv":
        args.refuse("--header applies only to --format csv")
    if args.depth is not None:
        try:
            least = families.least_depth(args.family, args.n, args.method)
        except ValueError as exc:
            args.refuse("--depth: %s" % exc)
        if args.depth < least:
            args.refuse("--depth %d is below %d, the least depth exact through --n %d"
                        % (args.depth, least, args.n))
    if args.method == "brute":
        brute.check_budget("--n", args.n)
    report = families.sequence(args.family, args.k, args.n, args.method, args.depth)
    if args.format == "json":
        import json
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    elif args.format == "csv":
        if args.header:
            print(",".join(str(n) for n in range(args.n + 1)))
        print(",".join(str(c) for c in report.counts))
    else:
        print(" ".join(str(c) for c in report.counts))
    return EXIT_OK


def cmd_tables(args) -> int:
    ok = True
    results = []
    for family in FAMILIES:
        rows, _ = tables.PUBLISHED[family]
        for k in sorted(rows):
            cells = families.row_diff(family, k)
            row_ok = all(exp == got for _, exp, got in cells)
            ok = ok and row_ok
            results.append((family, k, row_ok, cells))
    if args.as_json:
        import json
        payload = {
            "ok": ok,
            "tables": [
                {
                    "family": family,
                    "k": k,
                    "ok": row_ok,
                    "cells": [
                        {"n": n, "expected": str(exp), "got": str(got), "ok": exp == got}
                        for n, exp, got in cells
                    ],
                }
                for family, k, row_ok, cells in results
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for family, k, row_ok, cells in results:
            print("%-13s k=%d  %s" % (family, k, "PASS" if row_ok else "FAIL"))
            if not row_ok:
                for n, exp, got in cells:
                    if exp != got:
                        print("  n=%d expected %d got %d" % (n, exp, got))
        print("tables: %s" % ("PASS" if ok else "FAIL"))
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_verify(args) -> int:
    top = min(args.brute_max, args.n_max)
    brute.check_budget("--brute-max", top)
    fams = (args.family,) if args.family else FAMILIES
    ks = (args.k,) if args.k else tuple(range(1, args.k_max + 1))
    failures = []
    for family in fams:
        for k in ks:
            mismatches = families.verify_methods(
                family, k, args.n_max, args.brute_max, args.depth
            )
            if mismatches:
                failures.extend(mismatches)
                for family_, k_, n, ma, mb, va, vb in mismatches:
                    print(
                        "%s k=%d n=%d: %s=%d %s=%d"
                        % (family_, k_, n, ma, va, mb, vb)
                    )
            else:
                print(
                    "%-13s k=%d  OK (n<=%d, brute<=%d)"
                    % (family, k, args.n_max, top)
                )
    print("verify: %s" % ("PASS" if not failures else "FAIL"))
    return EXIT_OK if not failures else EXIT_MISMATCH


def main(argv=None) -> int:
    if argv is None:  # run as the program: a closed pipe ends it quietly
        import signal
        if hasattr(signal, "SIGPIPE"):
            signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        args.refuse(str(exc))
    except MemoryError:
        args.refuse("out of memory")
    except (NonIntegralResult, SingularSystem, SeriesError) as exc:
        print("internal inconsistency: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
