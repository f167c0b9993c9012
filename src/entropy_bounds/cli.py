"""Command-line front end.

Subcommands: ``coeffs`` exports exact coefficient tables as JSON, ``bounds``
evaluates sandwich bounds over parameter grids, ``verify`` cross-checks the
bounds against the brute-force oracles, and ``figure`` emits the gap or the
ends of the poisson-entropy large-lambda sandwich, one column per order, for
external plotting; it takes the points, and the default points, of the others.

Exit codes: 0 success, 1 verification failure (a sandwich missed its
oracle, which the theorems rule out for a correct build), 2 error: bad
flags, a method the target does not offer, or every ``bounds`` point and
any ``verify`` point outside the domain or with ends that cross at --bits.
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

from . import bounds, coefficients, oracle
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


def _context(args) -> PrecisionContext:
    try:
        return PrecisionContext(bits=args.bits)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_points(spec: str) -> list[Fraction]:
    try:
        points = [Fraction(tok) for tok in spec.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad points list {spec!r}") from exc
    if not points:
        raise UsageError("empty points list")
    return points


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
    if args.points is not None:
        return _parse_points(args.points)
    return _parse_points(default)


def _parse_m_list(spec: str) -> list[int]:
    try:
        ms = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad m list {spec!r}") from exc
    if not ms or any(m < 1 for m in ms):
        raise UsageError(f"orders must be positive integers, got {spec!r}")
    return ms


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


def _cmd_coeffs(args) -> int:
    ctx, kind = _context(args), args.kind
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
# Oracles and bounds are looked up in their modules at each call, never held,
# so that a wrapper put on the module (as perfbench's tracer does) is what runs.
_TARGETS = {
    "poisson-entropy": (("lambda",), "0.1,0.5,1,2,5,10,20,50,100",
                        lambda lam, ctx: oracle.poisson_entropy_oracle(lam, ctx)[0], {
        "large-lambda": ("entropy_poisson_large", True),
        "small-lambda": ("entropy_poisson_small", True),
        "cover-thomas": ("entropy_poisson_ct", False),
    }),
    "binomial-entropy": (("n", "p"), "0.05,0.2,0.5,0.8,0.95",
                         lambda n, p, ctx: oracle.binomial_entropy_oracle(n, p, ctx), {
        "corollary": ("entropy_binomial_bounds", True),
        "stirling-m1": ("entropy_binomial_stirling_m1", False),
    }),
    "relative-entropy": (("n", "p"), "0.05,0.2,0.5,0.8,0.95",
                         lambda n, p, ctx: oracle.relative_entropy_oracle(n, p, ctx), {
        None: ("relative_entropy_bounds", True),
    }),
}


def _parse_order(spec: str):
    if spec == "auto":
        return "auto"
    try:
        m = int(spec)
    except ValueError as exc:
        raise UsageError(f"--m must be an integer or 'auto', got {spec!r}") from exc
    if m < 1:
        raise UsageError(f"--m must be >= 1, got {m}")
    return m


def _target(args, ctx: PrecisionContext):
    """(column names, [(point, its printed columns)], oracle, method name, (bound name, takes
    an order m)) for the command line; a target with one bound is its own method name."""
    columns, default, oracle_fn, methods = _TARGETS[args.target]
    method = args.method if args.method is not None else next(iter(methods))
    if method not in methods:
        offered = ", ".join(filter(None, methods)) or "none"
        raise UsageError(f"{args.target} has no method {method!r} (methods: {offered})")
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
    return columns, points, oracle_fn, method or args.target, methods[method]


def _evaluate(bound, point, m, ctx: PrecisionContext):
    name, takes_order = bound
    fn = getattr(bounds, name)
    if not takes_order:
        return fn(*point, ctx)
    return fn(*point, m, ctx)


def _cmd_bounds(args) -> int:
    ctx = _context(args)
    m = _parse_order(args.m)
    bits = ctx.bits
    columns, points, _, method, bound = _target(args, ctx)
    header = [*columns, "m", "method", "lower", "upper", "midpoint", "gap", "error"]
    rows: list[list[str]] = []
    failures = 0
    for point, cols in points:
        try:
            rep = _evaluate(bound, point, m, ctx)
        except (DomainError, PrecisionError) as exc:
            failures += 1
            # an orderless bound leaves m blank, the rest echo --m
            rows.append(cols + [str(m) if bound[1] else "", method, "", "", "", "", str(exc)])
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


def _cmd_verify(args) -> int:
    ctx = _context(args)
    bits = ctx.bits
    m_list = _parse_m_list(args.m_list)
    columns, points, oracle_fn, method, bound = _target(args, ctx)
    header = [*columns, "m", "method", "oracle", "lower", "upper", "contained", "margin"]
    rows: list[list[str]] = []
    violations = 0
    for point, cols in points:
        # the bounds come first, so a one-sided method is refused before any oracle runs
        reps = [_evaluate(bound, point, m, ctx) for m in (m_list if bound[1] else [None])]
        if not all(isinstance(rep, bounds.BoundReport) for rep in reps):
            raise UsageError(f"{method} is a one-sided bound; verify needs an interval")
        value = oracle_fn(*point, ctx)
        for rep in reps:  # an orderless bound gives one row
            contained = rep.interval.contains(value)
            if not contained:
                violations += 1
            margin = ctx.round(min(ctx.mp.fsub(value, rep.lower), ctx.mp.fsub(rep.upper, value)))
            rows.append(cols + [str(rep.m), method, _fmt(value, bits), _fmt(rep.lower, bits),
                                _fmt(rep.upper, bits), str(contained).lower(), _fmt(margin, bits)])
    _emit(_csv_text(header, rows), args.out)
    return 1 if violations else 0


# --- figure ---------------------------------------------------------------


def _cmd_figure(args) -> int:
    ctx = _context(args)
    m_list = _parse_m_list(args.m_list)
    columns, points, _, _, bound = _target(args, ctx)
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
        description="Exact expansion coefficients and certified entropy bounds "
                    "for the Poisson and binomial laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="export exact coefficient tables as JSON")
    p.add_argument("kind", choices=["poisson", "binomial", "small-lambda"])
    p.add_argument("--m", type=int, default=None, help="expansion order")
    p.add_argument("--kmax", type=int, default=None, help="largest k for small-lambda c(k)")
    _add_common(p)
    p.set_defaults(handler=_cmd_coeffs)

    p = sub.add_parser("bounds", help="evaluate sandwich bounds over a grid")
    p.add_argument("target", choices=list(_TARGETS))
    p.add_argument("--method", default=None, help="; ".join(
        f"{target}: {'|'.join(methods)}" for target, (*_, methods) in _TARGETS.items()
        if None not in methods))
    p.add_argument("--m", default="2", help="expansion order, or 'auto' for the narrowest of "
                   f"{bounds.AUTO_ORDERS[0]}..{bounds.AUTO_ORDERS[-1]}")
    p.add_argument("--n", type=int, default=None, help="number of trials (binomial targets)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_grid(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("verify", help="cross-check bounds against brute-force oracles")
    p.add_argument("target", choices=list(_TARGETS))
    p.add_argument("--method", default=None, help="as for the bounds command")
    p.add_argument("--m-list", default="1,2,3,4,5", help="comma-separated orders")
    p.add_argument("--n", type=int, default=None, help="number of trials (binomial targets)")
    _add_grid(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("figure", help="CSV columns of the large-lambda poisson-entropy sandwich")
    p.add_argument("fig", choices=["gaps", "bounds"])
    p.add_argument("--m-list", default="1,2,3", help="comma-separated orders")
    _add_grid(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_figure, target="poisson-entropy", method="large-lambda")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (UsageError, DomainError, PrecisionError) as exc:
        print(f"entropy-bounds: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
