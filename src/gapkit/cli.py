"""Command-line front end: every library operation, with text and JSON output.

Exit codes: 0 success or pass, 1 a checked fail (fail verdict, violations
found, or a failed validation query), 2 usage or input errors, 3 an internal
error (a cross-check disagreed or a worker process died), 141 when stdout was
closed before the output was written (as under `| head`).

JSON output writes integers beyond 2^53 in magnitude as decimal strings.  A
search line is byte-identical to json.dumps of Violation.to_json_dict() under
that rule; Violation takes integer j, k and bound only, so the line is
formatted directly.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import reduce
from typing import Optional, Sequence

from .alexpoly import (
    IntPolynomial,
    alexander_from_gaps,
    expand_k_sequence,
    gaps_from_alexander,
    poly_mul,
)
from .checkers import CheckReport, CurveSpec, check_bl, check_flmn, check_pair_inequality
from .gapset import GapSet, gap_function_eval, gaps_from_generators, is_semigroup_complement
from .infconv import StepFunction, inf_conv_n
from .search import SearchConfig, Violation, search_violations

__all__ = ["main"]

_JSON_INT_LIMIT = 2**53


def _json_ready(value):
    """Replace integers beyond 2^53 with decimal strings, recursively."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value) if abs(value) > _JSON_INT_LIMIT else value
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    return value


def _cusps_json(cusps: Sequence[GapSet], texts: dict) -> str:
    """The items of a search line's "cusps" list, in json.dumps's layout.

    texts keeps each gap set's text by its elements from one call to the next.
    Every gap prints as a native int: a GapSet's bitmask is as wide as its largest gap.
    """
    items = []
    for g in cusps:
        text = texts.get(g.elements)
        if text is None:
            text = texts[g.elements] = "[%s]" % ", ".join(map(str, g.elements))
        items.append(text)
    return ", ".join(items)


def _violation_json(violation: Violation, cusps: str) -> str:
    """A search line: json.dumps(_json_ready(violation.to_json_dict())), formatted directly.

    cusps is _cusps_json(violation.cusps).  A line with j, k or bound beyond
    2^53 in magnitude, where _json_ready puts a string, goes through json.dumps.
    """
    j, k, bound = violation.j, violation.k, violation.bound
    limit = _JSON_INT_LIMIT
    if not (-limit <= j <= limit and -limit <= k <= limit and -limit <= bound <= limit):
        return json.dumps(_json_ready(violation.to_json_dict()))
    return '{"cusps": [%s], "j": %d, "k": %d, "bound": %d}' % (cusps, j, k, bound)


def _emit(args, doc, text: str) -> None:
    """Print doc as JSON under --json, and text otherwise."""
    sys.stdout.write((json.dumps(_json_ready(doc)) if args.json else text) + "\n")


def _parse_range(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text.strip())
    if not match:
        raise ValueError(f"malformed range {text!r}, expected A..B")
    lo, hi = int(match.group(1)), int(match.group(2))
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def _parse_shard(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"(\d+)/(\d+)", text.strip())
    if not match:
        raise ValueError(f"malformed shard {text!r}, expected INDEX/COUNT")
    return int(match.group(1)), int(match.group(2))


def _parse_cusps(text: str, strict: bool) -> tuple[GapSet, ...]:
    """Semicolon-separated gap sets; strict rejects non-semigroup complements."""
    cusps = tuple(GapSet.from_text(part) for part in text.split(";"))
    for gap_set in cusps:
        if strict and not is_semigroup_complement(gap_set):
            raise ValueError(
                f"{gap_set.to_text() or '-'} is not the gap set of a numerical semigroup"
            )
    return cusps


def _print_step(args, step: StepFunction) -> int:
    """The step function on [0, cutoff], or on --range A..B as {"start", "values"}."""
    if args.range is None:
        lo, hi = 0, step.cutoff
    else:
        lo, hi = _parse_range(args.range)
    points = range(lo, hi + 1)
    values = [step(k) for k in points]
    doc = step.to_json_dict() if args.range is None else {"start": lo, "values": values}
    _emit(args, doc, "\n".join(f"{k}\t{value}" for k, value in zip(points, values)))
    return 0


def _print_report(args, report: CheckReport) -> int:
    lines = [f"{report.check}: {report.verdict}"]
    for row in report.rows:
        marker = "" if row.satisfied else "  [violated]"
        lines.append(f"j={row.j}: {row.lhs} {row.relation} {row.rhs}{marker}")
    if report.witness is not None:
        lines.append(f"witness: {json.dumps(_json_ready(report.witness), sort_keys=True)}")
    _emit(args, report.to_json_dict(), "\n".join(lines))
    return 0 if report.passed else 1


def _cmd_gaps_from_generators(args) -> int:
    gap_set = gaps_from_generators(args.generators)
    _emit(args, list(gap_set.elements), gap_set.to_text() or "-")
    return 0


def _cmd_gaps_validate(args) -> int:
    gap_set = GapSet.from_text(args.gaps)
    ok = is_semigroup_complement(gap_set)
    doc = {"gaps": list(gap_set.elements), "semigroup_complement": ok}
    _emit(args, doc, f"semigroup complement: {'yes' if ok else 'no'}")
    return 0 if ok else 1


def _cmd_gapfn_eval(args) -> int:
    value = gap_function_eval(GapSet.from_text(args.gaps), args.m)
    _emit(args, {"m": args.m, "value": value}, str(value))
    return 0


def _cmd_gapfn_table(args) -> int:
    return _print_step(args, StepFunction.from_gap_set(GapSet.from_text(args.gaps)))


def _cmd_alex_from_gaps(args) -> int:
    poly = alexander_from_gaps(GapSet.from_text(args.gaps))
    _emit(args, list(poly.coefficients), poly.to_text())
    return 0


def _cmd_alex_to_gaps(args) -> int:
    gap_set = gaps_from_alexander(IntPolynomial.from_text(args.poly))
    _emit(args, list(gap_set.elements), gap_set.to_text() or "-")
    return 0


def _cmd_alex_mul(args) -> int:
    product = reduce(poly_mul, (IntPolynomial.from_text(p) for p in args.polys))
    _emit(args, list(product.coefficients), product.to_text())
    return 0


def _cmd_expand(args) -> int:
    ks = expand_k_sequence(IntPolynomial.from_text(args.poly), args.genus)
    _emit(args, {"genus": ks.genus, "ks": list(ks.ks)}, ",".join(str(k) for k in ks.ks))
    return 0


def _cmd_infconv(args) -> int:
    return _print_step(args, inf_conv_n(_parse_cusps(args.cusps, args.strict)))


def _cmd_check(args) -> int:
    cusps = _parse_cusps(args.cusps, args.strict)
    if args.which == "pair":
        if len(cusps) != 2:
            raise ValueError(f"check pair requires exactly two gap sets, got {len(cusps)}")
        report = check_pair_inequality(cusps[0], cusps[1])
    else:
        spec = CurveSpec(args.degree, cusps)
        report = check_bl(spec) if args.which == "bl" else check_flmn(spec)
    return _print_report(args, report)


def _cmd_search(args) -> int:
    shard = _parse_shard(args.shard) if args.shard else (0, 1)
    pool = _parse_cusps(args.pool, False) if args.pool else None
    config = SearchConfig(
        n=args.n,
        max_gap_bound=args.max_gap,
        genus_bound=args.genus_bound,
        semigroup_only=args.semigroup_only,
        require_bl=args.require_bl,
        shard=shard,
        pool=pool,
    )
    write = sys.stdout.write
    found = 0
    last = None
    texts: dict = {}
    for violation in search_violations(config, checkpoint_path=args.checkpoint, workers=args.workers):
        found += 1
        # a multiset's hits come one after another, so its cusps text is made once,
        # from the texts of its gap sets, each made once per run
        if violation.cusps != last:
            last = violation.cusps
            if args.json:
                cusps = _cusps_json(last, texts)
            else:
                cusps = ";".join(g.to_text() or "-" for g in last)
        if args.json:
            write(_violation_json(violation, cusps) + "\n")
        else:
            write(f"{cusps} j={violation.j} k={violation.k} bound={violation.bound}\n")
    return 1 if found else 0


def _build_parser() -> argparse.ArgumentParser:
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", help="emit JSON instead of text")
    strict_flag = argparse.ArgumentParser(add_help=False)
    strict_flag.add_argument(
        "--strict",
        action="store_true",
        help="reject gap sets that are not numerical semigroup complements",
    )
    range_flag = argparse.ArgumentParser(add_help=False)
    range_flag.add_argument("--range", metavar="A..B", help="evaluation range, inclusive")

    parser = argparse.ArgumentParser(
        prog="gapkit",
        description="Exact arithmetic for gap sets, their polynomials, and coefficient bound checks.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    gaps = top.add_parser("gaps", help="gap sets of numerical semigroups")
    gaps_sub = gaps.add_subparsers(dest="subcommand", required=True)
    p = gaps_sub.add_parser("from-generators", parents=[json_flag], help="gap set of a semigroup")
    p.add_argument("generators", type=int, nargs="+", help="semigroup generators")
    p.set_defaults(handler=_cmd_gaps_from_generators)
    p = gaps_sub.add_parser("validate", parents=[json_flag], help="test semigroup closure")
    p.add_argument("gaps", help='gap set, e.g. "1,2,5" ("-" for empty)')
    p.set_defaults(handler=_cmd_gaps_validate)

    gapfn = top.add_parser("gapfn", help="the gap counting function")
    gapfn_sub = gapfn.add_subparsers(dest="subcommand", required=True)
    p = gapfn_sub.add_parser("eval", parents=[json_flag], help="evaluate at one point")
    p.add_argument("gaps", help="gap set")
    p.add_argument("m", type=int, help="evaluation point, may be negative")
    p.set_defaults(handler=_cmd_gapfn_eval)
    p = gapfn_sub.add_parser("table", parents=[json_flag, range_flag], help="tabulate values")
    p.add_argument("gaps", help="gap set")
    p.set_defaults(handler=_cmd_gapfn_table)

    alex = top.add_parser("alex", help="gap-coded polynomials")
    alex_sub = alex.add_subparsers(dest="subcommand", required=True)
    p = alex_sub.add_parser("from-gaps", parents=[json_flag], help="polynomial of a gap set")
    p.add_argument("gaps", help="gap set")
    p.set_defaults(handler=_cmd_alex_from_gaps)
    p = alex_sub.add_parser("to-gaps", parents=[json_flag], help="gap set of a polynomial")
    p.add_argument("poly", help='coefficients from the constant term up, e.g. "1,-1,1"')
    p.set_defaults(handler=_cmd_alex_to_gaps)
    p = alex_sub.add_parser("mul", parents=[json_flag], help="exact product")
    p.add_argument("polys", nargs="+", help="one or more polynomials")
    p.set_defaults(handler=_cmd_alex_mul)

    p = top.add_parser("expand", parents=[json_flag], help="k-coefficients of a polynomial")
    p.add_argument("poly", help="polynomial with P(1) = 1")
    p.add_argument("genus", type=int, help="claimed genus, must equal P'(1)")
    p.set_defaults(handler=_cmd_expand)

    p = top.add_parser(
        "infconv", parents=[json_flag, strict_flag, range_flag], help="min-plus convolution"
    )
    p.add_argument("cusps", help='semicolon-separated gap sets, e.g. "1;1,3;1,2,5,7"')
    p.set_defaults(handler=_cmd_infconv)

    check = top.add_parser("check", help="decision procedures")
    check_sub = check.add_subparsers(dest="which", required=True)
    for which, blurb in (
        ("pair", "k_j <= I(j+1) for a pair of gap sets"),
        ("bl", "convolution identity at the points j*degree+1"),
        ("flmn", "coefficient bounds at the indices d(d-j-3)"),
    ):
        p = check_sub.add_parser(which, parents=[json_flag, strict_flag], help=blurb)
        p.add_argument("--cusps", required=True, help="semicolon-separated gap sets")
        if which != "pair":
            p.add_argument("--degree", type=int, required=True, help="curve degree d >= 3")
        p.set_defaults(handler=_cmd_check)

    p = top.add_parser("search", parents=[json_flag], help="scan multisets for violations")
    p.add_argument("--n", type=int, required=True, help="multiset size (number of cusps)")
    p.add_argument("--max-gap", type=int, help="enumerate subsets of {1..BOUND}")
    p.add_argument("--genus-bound", type=int, help="cap the genus of enumerated sets")
    p.add_argument("--semigroup-only", action="store_true", help="keep semigroup complements only")
    p.add_argument("--require-bl", type=int, metavar="D", help="keep multisets passing bl at degree D")
    p.add_argument("--pool", help="explicit pool, semicolon-separated gap sets")
    p.add_argument("--shard", metavar="I/N", help="process every N-th work unit, offset I")
    p.add_argument("--workers", type=int, default=1, help="worker processes")
    p.add_argument("--checkpoint", metavar="PATH", help="append-only progress file")
    p.set_defaults(handler=_cmd_search)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:  # every gapkit input error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so the exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # BrokenProcessPool is a RuntimeError too
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:  # never 1, which would read as a checked negative
        print("internal error: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
