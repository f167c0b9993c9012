"""Command-line front end.

Subcommands: ``coeffs`` exports exact coefficient tables as JSON, ``bounds``
evaluates sandwich bounds over parameter grids, ``verify`` cross-checks the
bounds against the brute-force oracles, and ``figure`` emits the gap or the
ends of the poisson-entropy large-lambda sandwich, one column per order, for
external plotting; it takes the points, and the default points, of the others.

Exit codes: 0 success, 1 verification failure (a sandwich missed its
oracle, which the theorems rule out for a correct build), 2 error: bad
flags, a flag the command or kind does not read or an order flag for an
orderless method, a method the target does not offer, or every ``bounds``
point and any ``verify`` point outside the domain or whose ends cross at --bits.
Identical invocations produce byte-identical output; ``--bits`` sets the
precision, 256 by default.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import mpmath

import entropy_bounds

from . import bounds, coefficients
from .symbolic import (
    DEFAULT_CONTEXT,
    DomainError,
    LaurentPoly,
    PrecisionContext,
    PrecisionError,
    rational_str,
    to_mpf,
)

class UsageError(ValueError):
    """Bad command-line input; mapped to exit code 2."""


def _digits(bits: int) -> int:
    # enough decimal digits for a lossless round-trip at the given precision
    return math.ceil(bits * 0.3010) + 2


def _fmt(x, bits: int) -> str:
    return mpmath.nstr(x, _digits(bits))


def _parse_grid(spec: str) -> list[Fraction]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be start:stop:step, got {spec!r}")
    try:
        start, stop, step = (Fraction(tok) for tok in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad grid spec {spec!r}") from exc
    if step <= 0 or stop < start:
        raise UsageError(f"grid requires stop >= start and step > 0, got {spec!r}")
    return [start + i * step for i in range(math.floor((stop - start) / step) + 1)]


def _grid_points(args, default: str) -> list[Fraction]:
    if args.grid is not None and args.points is not None:
        raise UsageError("give either --grid or --points, not both")
    if args.grid is not None:
        return _parse_grid(args.grid)
    spec = default if args.points is None else args.points
    try:
        points = [Fraction(tok) for tok in spec.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad points list {spec!r}") from exc
    if not points:
        raise UsageError("empty points list")
    return points


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# --- coeffs ---------------------------------------------------------------


def _exact_json(value):
    """An exact coefficient as 'num/den', a LaurentPoly over (q, log q) as its terms and log."""
    if isinstance(value, LaurentPoly):
        return {"terms": {str(e): rational_str(c) for (e, log), c in value.terms() if not log},
                "log": rational_str(value.coeff((0, 1)))}
    return rational_str(value)


def _cmd_coeffs(args, ctx: PrecisionContext) -> int:
    kind = args.kind
    unread = "m" if kind == "small-lambda" else "kmax"
    if getattr(args, unread) is not None:
        raise UsageError(f"--{unread} is not read by kind {kind}")
    if kind == "small-lambda":
        if args.kmax is None or args.kmax < 2:
            raise UsageError("--kmax >= 2 is required for kind small-lambda")
        payload = {"kind": kind, "kmax": args.kmax, "bits": ctx.bits, "c": {
            str(k): _fmt(coefficients.c_coeff(k, ctx), ctx.bits) for k in range(2, args.kmax + 1)}}
    else:
        if args.m is None or args.m < 1:
            raise UsageError(f"--m >= 1 is required for kind {kind}")
        # looked up at each call, as in _TARGETS below
        derive = {"poisson": coefficients.poisson_coeffs, "binomial": coefficients.binomial_coeffs}
        cs = derive[kind](args.m)
        payload = {"kind": kind, "m": args.m, **{
            key: {str(k): _exact_json(v) for k, v in sorted(values.items())}
            for key, values in (("a", cs.a), ("b", cs.b))}}
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


# --- bounds and verify ------------------------------------------------------


# target -> (point columns, default points, oracle, {method: (bound, takes an
# order m)}).  The last column is the grid, the others are flags; the first
# method is the default, and relative-entropy has one bound and no --method.
# The pair's second field is what _target reads to take or refuse the orders.
# Oracles are read through the package, which imports them on first use, and
# bounds through bounds, at each call, never held, so that a wrapper put on the
# module (as perfbench's tracer does) is what runs.
_TARGETS = {
    "poisson-entropy": (("lambda",), "0.1,0.5,1,2,5,10,20,50,100",
                        lambda lam, ctx: entropy_bounds.poisson_entropy_oracle(lam, ctx)[0], {
        "large-lambda": ("entropy_poisson_large", True),
        "small-lambda": ("entropy_poisson_small", True),
        "cover-thomas": ("entropy_poisson_ct", False),
    }),
    "binomial-entropy": (("n", "p"), "0.05,0.2,0.5,0.8,0.95",
                         lambda n, p, ctx: entropy_bounds.binomial_entropy_oracle(n, p, ctx), {
        "corollary": ("entropy_binomial_bounds", True),
        "stirling-m1": ("entropy_binomial_stirling_m1", False),
    }),
    "relative-entropy": (("n", "p"), "0.05,0.2,0.5,0.8,0.95",
                         lambda n, p, ctx: entropy_bounds.relative_entropy_oracle(n, p, ctx), {
        None: ("relative_entropy_bounds", True),
    }),
}


def _parse_orders(spec: str, flag: str) -> list:
    """The orders of --m (one positive integer, or 'auto') or --m-list (comma-separated)."""
    if flag == "--m" and spec == "auto":
        return ["auto"]
    tokens = [spec] if flag == "--m" else [tok for tok in spec.split(",") if tok.strip()]
    try:
        orders = [int(tok) for tok in tokens]
    except ValueError:
        orders = []
    if not orders or min(orders) < 1:
        what = "a positive integer or 'auto'" if flag == "--m" else "positive integers"
        raise UsageError(f"{flag} takes {what}, got {spec!r}")
    return orders


def _target(args, ctx: PrecisionContext, default_orders: str):
    """(column names, [(point, its printed columns)], oracle, method name, bound name, orders)
    for the command line; a target with one bound is its own method name. The orders are those
    of --m or --m-list, default_orders if neither is given, and [None] for an orderless bound."""
    columns, default, oracle_fn, methods = _TARGETS[args.target]
    if getattr(args, "n", None) is not None and "n" not in columns[:-1]:  # figure has no --n
        raise UsageError(f"--n is not read by target {args.target}")
    method = args.method if args.method is not None else next(iter(methods))
    if method not in methods:
        offered = ", ".join(filter(None, methods)) or "none"
        raise UsageError(f"{args.target} has no method {method!r} (methods: {offered})")
    bound, takes_order = methods[method]
    flag, spec = ("--m", args.m) if args.command == "bounds" else ("--m-list", args.m_list)
    if not takes_order and spec is not None:
        raise UsageError(f"{flag} is not read by method {method}")
    spec = default_orders if spec is None else spec
    orders = _parse_orders(spec, flag) if takes_order else [None]
    fixed = []
    for name in columns[:-1]:
        value = getattr(args, name)
        if value is None:
            raise UsageError(f"--{name} is required for target {args.target}")
        if value < 1:
            raise UsageError(f"--{name} must be >= 1, got {value}")
        fixed.append(value)
    points = [((*fixed, x), [str(v) for v in fixed] + [_fmt(to_mpf(x, ctx.mp), ctx.bits)])
              for x in _grid_points(args, default)]
    return columns, points, oracle_fn, method or args.target, bound, orders


def _evaluate(name: str, point, m, ctx: PrecisionContext):
    fn = getattr(bounds, name)
    return fn(*point, ctx) if m is None else fn(*point, m, ctx)


def _cmd_bounds(args, ctx: PrecisionContext) -> int:
    bits = ctx.bits
    columns, points, _, method, bound, (m,) = _target(args, ctx, "2")
    header = [*columns, "m", "method", "lower", "upper", "midpoint", "gap", "error"]
    rows: list[list[str]] = []
    failures = 0
    for point, cols in points:
        try:
            rep = _evaluate(bound, point, m, ctx)
        except (DomainError, PrecisionError) as exc:
            failures += 1
            # an orderless bound leaves m blank, the rest echo --m
            rows.append(cols + ["" if m is None else str(m), method, "", "", "", "", str(exc)])
            continue
        if isinstance(rep, bounds.BoundReport):
            rows.append(cols + [str(rep.m), method, _fmt(rep.lower, bits),
                                _fmt(rep.upper, bits), _fmt(rep.midpoint, bits),
                                _fmt(rep.gap, bits), ""])
        else:  # a one-sided upper bound
            rows.append(cols + ["", method, "", _fmt(rep, bits), "", "", ""])

    if failures == len(rows):
        raise UsageError("every grid point failed")
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit(_csv_text(header, rows), args.out)
    return 0


def _cmd_verify(args, ctx: PrecisionContext) -> int:
    bits = ctx.bits
    columns, points, oracle_fn, method, bound, orders = _target(args, ctx, "1,2,3,4,5")
    header = [*columns, "m", "method", "oracle", "lower", "upper", "contained", "margin"]
    rows: list[list[str]] = []
    violations = 0
    for point, cols in points:
        # the bounds come first, so a one-sided method is refused before any oracle runs
        reps = [_evaluate(bound, point, m, ctx) for m in orders]
        if not all(isinstance(rep, bounds.BoundReport) for rep in reps):
            raise UsageError(f"{method} is a one-sided bound; verify needs an interval")
        value = oracle_fn(*point, ctx)
        for rep in reps:  # an orderless bound gives one row
            contained = rep.contains(value)
            if not contained:
                violations += 1
            margin = ctx.round(min(ctx.mp.fsub(value, rep.lower), ctx.mp.fsub(rep.upper, value)))
            rows.append(cols + [str(rep.m), method, _fmt(value, bits), _fmt(rep.lower, bits),
                                _fmt(rep.upper, bits), str(contained).lower(), _fmt(margin, bits)])
    _emit(_csv_text(header, rows), args.out)
    return 1 if violations else 0


# --- figure ---------------------------------------------------------------


def _cmd_figure(args, ctx: PrecisionContext) -> int:
    columns, points, _, _, bound, m_list = _target(args, ctx, "1,2,3")
    ends = ("gap",) if args.fig == "gaps" else ("lower", "upper")
    header = [*columns] + [f"{end}_m{m}" for m in m_list for end in ends]
    rows = []
    for point, cols in points:
        reps = [_evaluate(bound, point, m, ctx) for m in m_list]
        rows.append(cols + [_fmt(getattr(rep, end), ctx.bits) for rep in reps for end in ends])
    _emit(_csv_text(header, rows), args.out)
    return 0


# --- parser ---------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bits", type=int, default=DEFAULT_CONTEXT.bits,
                        help="working precision in bits (default %(default)s)")
    parser.add_argument("--out", default=None, help="output file (default stdout)")


def _add_grid(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid", default=None, help="range start:stop:step")
    parser.add_argument("--points", default=None, help="comma-separated points")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entropy-bounds",
        allow_abbrev=False,
        description="Exact expansion coefficients and certified entropy bounds "
                    "for the Poisson and binomial laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", allow_abbrev=False, help="export exact coefficient tables as JSON")
    p.add_argument("kind", choices=["poisson", "binomial", "small-lambda"])
    p.add_argument("--m", type=int, default=None, help="expansion order")
    p.add_argument("--kmax", type=int, default=None, help="largest k for small-lambda c(k)")
    _add_common(p)
    p.set_defaults(handler=_cmd_coeffs)

    p = sub.add_parser("bounds", allow_abbrev=False, help="evaluate sandwich bounds over a grid")
    p.add_argument("target", choices=list(_TARGETS))
    p.add_argument("--method", default=None, help="; ".join(
        f"{target}: {'|'.join(methods)}" for target, (*_, methods) in _TARGETS.items()
        if None not in methods))
    p.add_argument("--m", default=None, help="expansion order (default 2), or 'auto' for the "
                   f"order of {bounds.AUTO_ORDERS[0]}..{bounds.AUTO_ORDERS[-1]} with the least gap")
    p.add_argument("--n", type=int, default=None, help="number of trials (binomial targets)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_grid(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("verify", allow_abbrev=False,
                       help="cross-check bounds against brute-force oracles")
    p.add_argument("target", choices=list(_TARGETS))
    p.add_argument("--method", default=None, help="as for the bounds command")
    p.add_argument("--m-list", default=None, help="comma-separated orders (default 1,2,3,4,5)")
    p.add_argument("--n", type=int, default=None, help="number of trials (binomial targets)")
    _add_grid(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("figure", allow_abbrev=False,
                       help="CSV columns of the large-lambda poisson-entropy sandwich")
    p.add_argument("fig", choices=["gaps", "bounds"])
    p.add_argument("--m-list", default=None, help="comma-separated orders (default 1,2,3)")
    _add_grid(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_figure, target="poisson-entropy", method="large-lambda")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            ctx = PrecisionContext(bits=args.bits)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        return args.handler(args, ctx)
    except (UsageError, DomainError, PrecisionError) as exc:
        print(f"entropy-bounds: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
