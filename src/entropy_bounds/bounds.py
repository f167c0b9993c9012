"""Certified two-sided bounds, one public routine per inequality.

Every routine returns a :class:`BoundReport` whose interval is guaranteed by
the corresponding theorem to contain the target quantity; the guarantees are
analytic.  Each sandwich is a closed-form head, a series with exact dyadic
coefficients and a gap; a routine checks its inputs, forms its head (logarithms,
log Gamma) in mpmath arithmetic in ``ctx.mp``, and hands its ``ends`` and the key
of its compiled forms to :func:`_sandwich`, which all share.  Its series and gap
are summed in integers, rounded once, by :func:`symbolic.evaluate`'s evaluator at the point, and
each end is rounded to nearest at ``ctx.bits``.  The exact D(n, p) is no such
form: it is one fixed-point sum over the binomial tails near the mean, rounded once.

Every order-taking routine also takes m = "auto" (the CLI's ``--m auto``, and
:func:`best_interval`): the order of AUTO_ORDERS with the least rounded gap, the
lowest order winning ties.  Each gap is known before its bound, so the six gaps
are one evaluation and only the orders within a proven rounding slack of the
least gap, or below zero, are reported; a fixed order is the one candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul
from typing import Callable

from mpmath import mp, mpf
from mpmath.libmp import (
    from_int,
    from_man_exp,
    fzero,
    mpf_add,
    mpf_div,
    mpf_le,
    mpf_lt,
    mpf_pos,
    mpf_shift,
    mpf_sub,
    round_nearest,
    to_rational,
)

from . import coefficients
from .symbolic import (
    DEFAULT_CONTEXT,
    Interval,
    LaurentPoly,
    PrecisionContext,
    PrecisionError,
    _check_n,
    _check_order,
    _dyadic,
    _form,
    _log_factorial_reader,
    _logs,
    _mp_context,
    _point,
    _round64,
    evaluate,
)


# the orders best_interval, and so the CLI's --m auto, chooses among
AUTO_ORDERS = range(1, 7)


@dataclass(frozen=True)
class BoundReport:
    """A certified sandwich at order m, with its width and midpoint."""

    interval: Interval
    midpoint: mpf
    gap: mpf
    m: int
    method: str

    @property
    def lower(self) -> mpf:
        return self.interval.lower

    @property
    def upper(self) -> mpf:
        return self.interval.upper


def _report(lower, upper, m: int, method: str, ctx: PrecisionContext) -> BoundReport:
    """Each end, and the gap and midpoint of the rounded ends, rounded once at ``ctx.bits``."""
    bits = ctx.bits
    lo, hi = mpf_pos(lower._mpf_, bits, round_nearest), mpf_pos(upper._mpf_, bits, round_nearest)
    if mpf_lt(hi, lo):
        raise PrecisionError(f"the ends of the order-{m} {method} bound cross at {bits} bits")
    return BoundReport(
        interval=Interval(mp.make_mpf(lo), mp.make_mpf(hi)),
        midpoint=mp.make_mpf(mpf_shift(mpf_add(lo, hi, bits, round_nearest), -1)),
        gap=mp.make_mpf(mpf_sub(hi, lo, bits, round_nearest)),
        m=m,
        method=method,
    )


def _check_m(m) -> None:
    """:func:`symbolic._check_order`, letting m = "auto" through."""
    if m != "auto":
        _check_order(m)


@lru_cache(maxsize=144)  # six sets (README) at orders 1..6, four precisions
def _compiled(M, derive, *args) -> tuple:
    """(series, gap, box) for the exact pair (series, gap) = ``derive(*args)``: each as its form
    (:func:`symbolic._form`) in the context ``M``, whose precision no code may change, and box =
    (k, ((lo_i, hi_i), ...)) with 2^k > sum |c| over the series' coefficients, and lo_i and hi_i
    the least and greatest exponent of its variable x_i."""
    series, gap = derive(*args)
    terms = series._terms
    box = (int(sum(map(abs, terms.values()))).bit_length(),
           tuple((min(es), max(es)) for es in zip(*terms)))
    return _form(series, M), _form(gap, M), box


def _top(x) -> int:
    """An integer t with |x| < 2^t, and 2^(t-1) <= |x| unless x is 0, for the mpf tuple ``x``."""
    _, _, exp, bc = x
    return exp + bc


def _beyond(boxes, tops: list[int]) -> int:
    """An integer beta with sum |c x^e| < 2^beta for the series of each box of ``boxes``,
    at a point whose coordinates x_i have :func:`_top` tops[i] and are nonzero where a lo_i is
    negative: |x_i|^e is below 2^(e tops[i]) for e > 0, and at most 2^(e (tops[i] - 1)) for
    e <= 0, a bound convex in e, so over lo_i <= e <= hi_i largest at lo_i or hi_i; and
    2^k > sum |c|."""
    beta = 0
    for k, spans in boxes:
        for (lo, hi), top in zip(spans, tops):
            k += max(e * top if e > 0 else e * (top - 1) for e in (lo, hi))
        beta = max(beta, k)
    return beta


def _sandwich(ctx: PrecisionContext, method: str, m, key: tuple, point: tuple, ends,
              heads: tuple = ()) -> BoundReport:
    """The order-m report of a sandwich, m an order or "auto": ``_compiled(ctx.mp, *key, k)`` is
    the compiled (series, gap) of order k and the series' box, evaluated at ``point``,
    and ``ends(s, v)`` the ends (lower, upper) in ``ctx.mp`` for series value s and gap value v,
    one end formed from the other and v.  ``heads`` are the other terms of the first end, mpfs
    whose moduli sum to ``head``.

    One evaluator (:func:`evaluate`) at ``point`` values every form asked for, on the same power
    ladders.  A fixed m is the one candidate: it is asked for its gap and then its series, and
    reported with no slack computed, so ``heads`` goes unread.

    For m = "auto" it is the report, of orders AUTO_ORDERS, with the least rounded gap, the lowest
    order winning ties: what a scan of the six reports returns, bit for bit, including a crossing
    order's :class:`PrecisionError`.  It is asked for the six gaps, and then for the series of
    the candidate orders, reported in ascending order: every order whose gap value is negative,
    and every order k with

        g_k <= max(g_j, 0) + 2^(t + 6 - b),

    b = ``ctx.bits``, g_k the gap value of order k, j the least g's order, and t the greatest of
    :func:`_top` of ``head`` and of each g_k, and :func:`_beyond` of the orders' boxes.  The
    slack is 16 ulps at b bits of the bound 3 2^t on every order's ends.

    A left-out order can neither win nor tie.  Proof, with P = b + 64 the precision of
    ``ctx.mp``, where each operation rounds within 2^-P relative, and rounding at b bits within
    2^-b: (1) by :func:`evaluate`'s bound, the series value s_k lies within |s_k| 2^-P +
    2^(2-P) S_k of sum c x^e, of modulus at most S_k = sum |c x^e|, and S_k < 2^t by
    :func:`_beyond`.  So |s_k| < 2^t (1 + 2^(3-P)), and both ends, A_k and A'_k = A_k -+ g_k
    rounded, are below 3 (1 + 2^-60) 2^t in modulus.  (2) The rounded ends differ by x_k with
    |x_k - g_k| <= 2^-b (|A_k| + |A'_k|) + 2^-P |A'_k| < r = 2^(t + 3 - b).  (3) A left-out k has
    g_k >= 0, so its ends cannot cross: every crossing order is reported, in the scan's order,
    and raises the scan's error.  If j does not raise, its rounded gap is G_j <= (1 + 2^-b) x_j
    <= Gamma = (1 + 2^-b)(max(g_j, 0) + r).  A left-out k has g_k above the slack, rounded once
    at P bits, which exceeds max(g_j, 0)(1 + 2^(3-b)) + 3 r, as 2^t > max(g_j, 0); so x_k >
    g_k - r > Gamma (1 + 2^(3-b)) / (1 + 2^-b) >= 0, and its rounded gap is G_k >= (1 - 2^-b)
    x_k > Gamma >= G_j: strictly wider than order j.
    """
    M, bits = ctx.mp, ctx.bits
    value = evaluate(M, *point)
    if m != "auto":
        series, gap, _ = _compiled(M, *key, m)
        v = value(gap)
        return _report(*ends(value(series), v), m, method, ctx)
    sets = [_compiled(M, *key, k) for k in AUTO_ORDERS]
    gaps = [value(gap) for _, gap, _ in sets]
    tops = [_top(x._mpf_) for x in point]
    t = max(_top(sum(map(abs, heads))._mpf_), *(_top(g._mpf_) for g in gaps),
            _beyond([f[2] for f in sets], tops))
    least = min(gaps)._mpf_
    # a negative gap lies below the slack too
    slack = mpf_add(least if least[0] == 0 else fzero, from_man_exp(1, t + 6 - bits), M.prec)
    reports = [_report(*ends(value(series), g), k, method, ctx)
               for k, (series, _, _), g in zip(AUTO_ORDERS, sets, gaps) if mpf_le(g._mpf_, slack)]
    return min(reports, key=lambda r: r.gap)


def _lower_anchored(head: mpf):
    """``ends`` for :func:`_sandwich` of a sandwich whose lower end is head + s, and upper end
    that plus the gap."""
    return lambda s, v: ((end := head + s), end + v)


def _over_n(pieces) -> LaurentPoly:
    """sum_k f_k n^-k for the coefficients of ``pieces``, {k: f_k}: over (n) for rationals,
    and over (*x, n) for LaurentPolys over x, such as (q, log q).  The exponents and Fractions
    are canonical already, so the terms go to :meth:`LaurentPoly._of` uncoerced."""
    return LaurentPoly._of({(*e, -k): c for k, f in pieces.items() for e, c in (
        f._terms.items() if isinstance(f, LaurentPoly) else [((), f)])})


def _sandwich_forms(derive, m: int) -> tuple:
    """The series sum_k b(m, k) n^-k and gap sum_k a(m, k) n^-k (:func:`_over_n`) of the set
    ``derive(m)``, ``derive`` being part of the cache key; n is lam for the Poisson law."""
    cs = derive(m)
    return _over_n(cs.b), _over_n(cs.a)


def _small_forms(c, bits: int, m: int) -> tuple:
    """Over (lam), the series sum_{k=2}^{2m} c(k)/k! lam^k and the gap, minus its next term; each
    c(k) = ``c(k, bits)`` enters exactly, and ``c`` is part of the cache key.  The gap is one
    term, which :func:`evaluate` sums exactly before rounding to nearest, so its value is minus
    the next term's, bit for bit."""
    ctx = PrecisionContext(bits)
    *terms, (e, c_next) = [((k,), Fraction(*to_rational(c(k, ctx)._mpf_)) / math.factorial(k))
                           for k in range(2, 2 * m + 2)]
    return LaurentPoly._of(dict(terms)), LaurentPoly._of({e: -c_next})


def _relative_entropy_sum(n: int, p, M) -> tuple:
    """(point, t, key) for D(n, p) + D(n, q) at u = pq, once n and p are checked: the order-k
    sandwiches at p and at q summed (:func:`coefficients._symmetric_coeffs`).  D(n, p) + D(n, q)
    lies in [l, l + g] with l = s - t, t = (1 + log u)/2, and s and g the series and gap of
    ``_compiled(M, *key, k)`` at ``point`` = (u, log u, n): sum_i b~_sym(k, i; u) n^-i and
    sum_i a~_sym(k, i; u) n^-i."""
    _check_n(n)
    p_m = _point(p, M, "p", "in (0,1)")
    u = p_m * (1 - p_m)
    log_u = M.log(u)
    return ((u, log_u, M.mpf(n)), (1 + log_u) / 2,
            (_sandwich_forms, coefficients._symmetric_coeffs))


def entropy_poisson_small(
    lam, m: int | str = 1, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> BoundReport:
    """Small-mean sandwich for H(lam), valid for every lam >= 0.

    lower = lam - lam log lam + sum_{k=2}^{2m+1} c(k)/k! lam^k, upper stops
    the sum at 2m.  The two differ by O(lam^(2m+1)).
    """
    _check_m(m)
    M = ctx.mp
    lam_m = _point(lam, M, "lam", ">= 0")
    head = lam_m - lam_m * M.log(lam_m) if lam_m else M.zero
    return _sandwich(ctx, "small-lambda", m, (_small_forms, coefficients.c_coeff, ctx.bits),
                     (lam_m,), lambda s, v: ((end := head + s) - v, end), (head,))


def entropy_poisson_large(
    lam, m: int | str = 1, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> BoundReport:
    """Large-mean sandwich: H(lam) in [u - r_m(lam), u] with
    u = log(2 pi lam)/2 + 1/2 + sum_k b(m,k)/lam^k."""
    _check_m(m)
    M = ctx.mp
    lam_m = _point(lam, M, "lam", "> 0")
    head = M.log(2 * M.pi * lam_m) / 2 + M.mpf(1) / 2
    return _sandwich(ctx, "large-lambda", m, (_sandwich_forms, coefficients.poisson_coeffs),
                     (lam_m,), lambda s, v: ((end := head + s) - v, end), (head,))


def entropy_poisson_ct(lam, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """Classical upper bound H(lam) <= log(2 pi e (lam + 1/12)) / 2."""
    M = ctx.mp
    lam_m = _point(lam, M, "lam", ">= 0")
    return ctx.round(M.log(2 * M.pi * M.e * (lam_m + M.mpf(1) / 12)) / 2)


def _binomial_window(n: int, a: int, b: int, E: int, P: int) -> tuple[int, list[int]]:
    """(lo, w) for B(n, p), p = a/2^E and q = b/2^E exactly: w[k - lo] for k = lo..hi is the
    floor of 2^P pmf(k)/pmf(mode), walked outward from the mode by the exact pmf ratio.

    Each floor loses under one unit, and the ratio is at most 1 outward, so weight k is
    within |k - mode| units below its value.  The ratio keeps falling, so the weights from k
    on, in either direction, are at most (w_k + |k - mode|) / (1 - ratio at k); a side ends
    before the first k where that is at most n units, or at the end of the support.
    """
    mode = min(n, (n + 1) * a >> E)
    sides = []
    for d, end, ratio in ((-1, 0, lambda k: (k * b, (n - k + 1) * a)),
                          (1, n, lambda k: ((n - k) * a, (k + 1) * b))):
        k, w, side = mode, 1 << P, []
        num, den = ratio(k)  # pmf(k + d) / pmf(k)
        while k != end:
            k, w = k + d, w * num // den
            if k != end:
                num, den = ratio(k)
                if (w + abs(k - mode)) * den <= n * (den - num):
                    break
            side.append(w)
        sides.append(side)
    down, up = sides
    return mode - len(down), [*reversed(down), 1 << P, *up]


def relative_entropy_exact(n: int, p, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """Exact D(n, p) at p as ``ctx.mp`` holds it, within half an ulp plus 2^-62 ulp, from the
    binomial tails T_j = P(B_{n,p} > j):

        D(n, p) = n(p + q log q) + S,    S = sum_{j=1}^{n-1} log(1 - j/n) T_j.

    As sum_j T_j = np, this is sum_k P(k) log(n!/(n-k)!) - np log n + n(p + q log q) by Abel
    summation.  Every term of S is negative, and S cancels only against the head n(p + q log
    q), whose p^k coefficient n/(k(k-1)) is at most 3n times D's own (at least 1/(3k), as
    -log(1-u) >= u + u^2/2 in D's p-series): so the head is at most 3nD, |S| < 3nD, and as
    |log(1 - j/n)| >= 1/n, sum_{j>=1} T_j <= 3n^2 D.  Also D >= p^2/6 and sum_j |log(1 - j/n)|
    = n log n - log n! < n.

    S is empty at n = 1.  The weights of B (:func:`_binomial_window`) are integers at P =
    bits + 74 + 3 bl(n) + 2 max(0, -mag p) bits, bl the bit length, and T_j is their sum
    beyond j over their sum s >= 2^P, each sum within e <= n(n+1)/2 + 2n <= 2n^2 units for
    n >= 2; so T_j is within 2e/s <= 2^(2-P) n^2, and S within 2^(3-P) n^3 < 2^-(bits+66)
    p^2/6 <= 2^-(bits+66) D.  Below the window T_j = 1, and that run is one log-factorial
    difference (:func:`symbolic._log_factorial_reader`).  Each log is a fixed-point integer at
    F = 64 + a multiple of 64 >= bits + 70 + 2 bl(n) + bl(bl(n)) fractional bits (the ladder
    below the cap, else one ``mpf_log`` each: :func:`symbolic._logs`), so log(1 - j/n) is
    within 4 bl(n) units and S within 2^(4-F) bl(n) 4n^2 D <= 2^-(bits+66) D.  The head,
    formed at bits + 73 + bl(n) + max(0, -mag p) bits with q exact, is within 2^-(bits+66)
    D.  Their sum, within 2^-(bits+64) D, is one exact quotient, rounded once.
    """
    _check_n(n)
    M = ctx.mp
    p_m = _point(p, M, "p", "in [0,1]")
    if not p_m:
        return ctx.round(p_m)
    _, a, exp, _ = p_m._mpf_
    E, bl, lost = -exp, n.bit_length(), -min(0, M.mag(p_m))
    b = (1 << E) - a  # p = a / 2^E and q = b / 2^E exactly
    lo, w = _binomial_window(n, a, b, E, ctx.bits + 74 + 3 * bl + 2 * lost)
    hi, j0 = lo + len(w) - 1, max(lo, 1)
    prec = _round64(ctx.bits + 6 + 2 * bl + bl.bit_length())
    # log n, then log(n - j) for j = hi - 1 down to j0, beside T_j's numerators, sum_{k>j} w_k
    (log_n, *logs), exp = _logs([n, *range(n - hi + 1, n - j0 + 1)], prec, True)
    tails = list(accumulate(reversed(w[j0 + 1 - lo:])))
    sigma = sum(w)
    total = sum(map(mul, logs, tails)) - log_n * sum(tails)
    if lo > 1:  # sum_{j=1}^{lo-1} log(1 - j/n), each T_j = 1
        log_fact = _log_factorial_reader(prec)[0]
        fold = log_fact(n - 1) - log_fact(n - lo) - (lo - 1) * log_n
        total += fold * sigma
    H = _mp_context(_round64(ctx.bits + 73 + bl + lost))
    q = H.fsub(1, p_m, exact=True)
    h_man, h_exp = _dyadic(n * H.fadd(p_m, q * H.log(q) if q else 0))
    # D = head + total 2^exp / sigma, as one quotient over 2^base
    base = min(h_exp, exp)
    num = (h_man * sigma << h_exp - base) + (total << exp - base)
    return mp.make_mpf(mpf_div(from_man_exp(num, base), from_int(sigma), ctx.bits, round_nearest))


def relative_entropy_bounds(
    n: int, p, m: int | str = 1, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> BoundReport:
    """Large-n sandwich: D(n, p) in [l, l + r~] with
    l = -(p + log q)/2 + sum_k b~(m,k;p)/n^k."""
    _check_m(m)
    _check_n(n)
    M = ctx.mp
    p_m = _point(p, M, "p", "in (0,1)")
    q_m = 1 - p_m
    log_q = M.log(q_m)
    head = -(p_m + log_q) / 2
    return _sandwich(ctx, "relative-entropy", m, (_sandwich_forms, coefficients.binomial_coeffs),
                     (q_m, log_q, M.mpf(n)), _lower_anchored(head), (head,))


def entropy_binomial_bounds(
    n: int, p, m: int | str = 1, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> BoundReport:
    """Sandwich for H(B_{n,p}) through the identity
    H = log n! - n log n + n - D(n, p) - D(n, q), with D(n, p) + D(n, q) replaced
    by its order-m interval in u = pq.  log n! is log Gamma(n + 1) at the working
    precision, so its cost does not grow with n."""
    _check_m(m)
    M = ctx.mp
    point, t, key = _relative_entropy_sum(n, p, M)
    head = M.loggamma(n + 1) - n * M.log(n) + n
    return _sandwich(ctx, "binomial-corollary", m, key, point,
                     lambda s, v: ((end := head - (s - t)) - v, end), (head, t))


def entropy_binomial_stirling_m1(n: int, p, ctx: PrecisionContext = DEFAULT_CONTEXT) -> BoundReport:
    """Order-1 binomial entropy sandwich: the order-1 corollary with log n! - n log n + n
    replaced by Stirling's log(2 pi n)/2 + [1/(12n) - 1/(360n^3), 1/(12n)].  In closed form,
    log(2 pi n p q)/2 + 1/2 + [C1/n + C2/n^2 + C3/n^3, C4/n] (:func:`stirling_m1_constants`)."""
    M = ctx.mp
    point, t, key = _relative_entropy_sum(n, p, M)
    head = M.log(2 * M.pi * n) / 2 + M.mpf(1) / (12 * n)
    return _sandwich(ctx, "binomial-stirling", 1, key, point, lambda s, v: (
        (end := head - (s - t)) - v - M.mpf(1) / (360 * n**3), end))


def expected_log_poisson_bounds(
    s, m: int | str = 1, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> BoundReport:
    """Sandwich for E[log(N_s + 1)]:
    lower = log s + sum_{k=2}^{2m+1} (-1)^k mu_k(s) / (k (k-1) s^k),
    gap = mu_{2m+2}(s) / ((2m+1) s^(2m+2))."""
    _check_m(m)
    M = ctx.mp
    s_m = _point(s, M, "s", "> 0")
    head = M.log(s_m)
    return _sandwich(ctx, "expected-log-poisson", m, (coefficients.expected_log_series, "poisson"),
                     (s_m,), _lower_anchored(head), (head,))


def expected_log_binomial_bounds(
    n: int, s, m: int | str = 1, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> BoundReport:
    """Sandwich for E[log(B_{n-1,s} + 1)], same shape with mu_k(n, s) and
    powers of ns.  Subtract log(ns) to bound the ratio form."""
    _check_m(m)
    _check_n(n)
    M = ctx.mp
    s_m = _point(s, M, "s", "in (0,1)")
    head = M.log(n * s_m)
    return _sandwich(ctx, "expected-log-binomial", m,
                     (coefficients.expected_log_series, "binomial"), (M.mpf(n), s_m),
                     _lower_anchored(head), (head,))


def best_interval(
    bound_fn: Callable[..., BoundReport],
    *args,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
) -> BoundReport:
    """``bound_fn(*args, m="auto", ctx=ctx)``: of the orders AUTO_ORDERS (1..6), the report with
    the least rounded gap, the lowest order winning ties.

    The intervals need not be nested in m, so minimal width is the honest aggregate.
    :func:`_sandwich`, through which every bound reports, evaluates the six gaps first and
    reports only the orders within a proven rounding slack of the least gap, so it returns what
    reporting all six and keeping the narrowest would, bit for bit.
    """
    return bound_fn(*args, m="auto", ctx=ctx)
