"""Certified two-sided bounds, one public routine per inequality.

Every routine returns a :class:`BoundReport` whose ends are guaranteed by
the corresponding theorem to contain the target quantity; the guarantees are
analytic.  Each sandwich is a closed-form head, a series with exact rational coefficients and
a gap; a routine checks its inputs, forms its point and head as raw libmp values at P bits
(``ctx.mp.prec``, or more for relative entropy at small p), each step the libmp call that
mpmath's own operator makes, and hands P, its ``ends`` and the key of its exact compiled forms
to :func:`_sandwich`, which all share.  Its series and gap are summed in integers, rounded
once, by :func:`symbolic.evaluate`'s evaluator at the point, and :func:`_report` rounds each
end to nearest at ``ctx.bits`` into the report's four mpfs, the first the call makes.  The
exact D(n, p) is no such form: it is one fixed-point sum over the binomial tails, rounded once.

Every order-taking routine also takes m = "auto" (the CLI's ``--m auto``, and
:func:`best_interval`): the order of AUTO_ORDERS whose evaluated gap is least, the
lowest order winning ties.  Each gap is known before its series, so only that
order's series is evaluated.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul
from typing import Callable

from mpmath import mp, mpf
from mpmath.libmp import (
    fone,
    from_int,
    from_man_exp,
    fzero,
    mpf_add,
    mpf_div,
    mpf_e,
    mpf_le,
    mpf_log,
    mpf_loggamma,
    mpf_lt,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_pi,
    mpf_pos,
    mpf_shift,
    mpf_sub,
    round_ceiling,
    round_nearest as rn,
    to_rational,
)

from . import coefficients
from .symbolic import (
    DEFAULT_CONTEXT,
    DomainError,
    LaurentPoly,
    PrecisionContext,
    PrecisionError,
    _check_positive,
    _dyadic,
    _form,
    _log_factorial_reader,
    _logs,
    _point,
    _record,
    _round64,
    as_fraction,
    evaluate,
)


# the orders best_interval, and so the CLI's --m auto, chooses among
AUTO_ORDERS = range(1, 7)


class BoundReport(_record("BoundReport", "lower upper midpoint gap m method")):
    """A certified sandwich at order m, lower <= quantity <= upper, with its width and midpoint."""

    __slots__ = ()

    def __new__(cls, lower: mpf, upper: mpf, midpoint: mpf, gap: mpf, m: int,
                method: str) -> BoundReport:
        if not mpf_le(lower._mpf_, upper._mpf_):
            raise ValueError(f"empty interval: [{lower}, {upper}]")
        return tuple.__new__(cls, (lower, upper, midpoint, gap, m, method))

    def contains(self, x) -> bool:
        """lower <= x <= upper: an int, Fraction or string read exactly (:func:`as_fraction`)
        against the ends' exact dyadic values, an mpf or float as mpf comparison reads it."""
        if isinstance(x, (int, Fraction, str)):
            lo, hi = (Fraction(*to_rational(end._mpf_)) for end in (self.lower, self.upper))
            return lo <= as_fraction(x) <= hi
        return self.lower <= x <= self.upper


def _report(lower: tuple, upper: tuple, m: int, method: str, ctx: PrecisionContext) -> BoundReport:
    """Each raw end, and the gap and midpoint of the rounded ends, rounded once at ``ctx.bits``."""
    bits = ctx.bits
    lo, hi = mpf_pos(lower, bits, rn), mpf_pos(upper, bits, rn)
    if mpf_lt(hi, lo):
        raise PrecisionError(f"the ends of the order-{m} {method} bound cross at {bits} bits")
    return BoundReport(
        lower=mp.make_mpf(lo),
        upper=mp.make_mpf(hi),
        midpoint=mp.make_mpf(mpf_shift(mpf_add(lo, hi, bits, rn), -1)),
        gap=mp.make_mpf(mpf_sub(hi, lo, bits, rn)),
        m=m,
        method=method,
    )


def _check_m(m) -> None:
    """Raise ``ValueError`` unless the order m is a positive int or "auto"."""
    if m != "auto":
        _check_positive(m, "order m")


# six sets (README) at orders 1..6 are 30 entries, and 6 per precision for the small-mean set,
# whose key holds its context: 144 hold orders 1..24 of all six, or 1..6 at 19 precisions
@lru_cache(maxsize=144)
def _compiled(derive, *args) -> tuple:
    """The exact forms (:func:`symbolic._form`) of the pair (series, gap) ``derive(*args)``."""
    series, gap = derive(*args)
    return _form(series), _form(gap)


def _sandwich(ctx: PrecisionContext, P: int, method: str, m, key, point, ends) -> BoundReport:
    """The order-m report of a sandwich, m an order or "auto": ``_compiled(*key, k)`` is the
    compiled (series, gap) of order k, evaluated at ``point``, and ``ends(s, v)`` the ends
    (lower, upper) for series value s and gap value v, one end formed from the other and v, all
    raw libmp values at the caller's P bits, ``ctx.mp.prec`` or more.

    One evaluator (:func:`evaluate`) at ``point`` values every form asked for, on the same power
    ladders.  The candidate orders are AUTO_ORDERS for m = "auto", else m alone; each is asked
    for its gap, and the order whose evaluated gap is least, the lowest winning ties, for its
    series.  Every order's sandwich is certified by its own theorem, so the choice needs no
    proof: it may be a few ulps wider than the narrowest rounded interval.
    """
    value, best = evaluate(P, *point), None
    for k in AUTO_ORDERS if m == "auto" else (m,):
        gap = value(_compiled(*key, k)[1])
        if best is None or mpf_lt(gap, best[1]):
            best = k, gap
    m, v = best
    return _report(*ends(value(_compiled(*key, m)[0]), v), m, method, ctx)


def _anchored(head: tuple, P: int, lower: bool):
    """``ends`` for :func:`_sandwich` of a sandwich one of whose ends is head + s, the lower end
    if ``lower``, and the other that end plus the gap, or less it, all at ``P`` bits."""
    if lower:
        return lambda s, v: ((end := mpf_add(head, s, P, rn)), mpf_add(end, v, P, rn))
    return lambda s, v: (mpf_sub(end := mpf_add(head, s, P, rn), v, P, rn), end)


def _sandwich_forms(derive, m: int) -> tuple:
    """The series sum_k b(m, k) n^-k and gap sum_k a(m, k) n^-k of the set ``derive(m)``, over
    (n) for rationals and over (*x, n) for LaurentPolys over x, such as (q, log q), on numerators
    over one lcm; ``derive`` is part of the cache key, and n is lam for the Poisson law."""
    cs, forms = derive(m), []
    for pieces in cs.b, cs.a:
        parts = [(k, f._num, f._den) if isinstance(f, LaurentPoly) else
                 (k, {(): f.numerator}, f.denominator) for k, f in pieces.items()]
        den = math.lcm(*(d for _, _, d in parts))
        forms.append(LaurentPoly._over(
            {(*e, -k): c * (den // d) for k, num, d in parts for e, c in num.items()}, den))
    return tuple(forms)


def _small_forms(c, ctx: PrecisionContext, m: int) -> tuple:
    """Over (lam), the series sum_{k=2}^{2m} c(k)/k! lam^k and the gap, minus its next term; each
    c(k) = ``c(k, ctx)`` enters exactly, and ``c`` is part of the cache key.  The gap is one
    term, which :func:`evaluate` sums exactly before rounding to nearest, so its value is minus
    the next term's, bit for bit."""
    *terms, (e, c_next) = [((k,), Fraction(*to_rational(c(k, ctx)._mpf_)) / math.factorial(k))
                           for k in range(2, 2 * m + 2)]
    return LaurentPoly(terms), LaurentPoly({e: -c_next})


def entropy_poisson_small(
    lam, m: int | str = 1, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> BoundReport:
    """Small-mean sandwich for H(lam), valid for every lam >= 0.

    lower = lam - lam log lam + sum_{k=2}^{2m+1} c(k)/k! lam^k, upper stops
    the sum at 2m.  The two differ by O(lam^(2m+1)).
    """
    _check_m(m)
    M, P = ctx.mp, ctx.mp.prec
    lam_m = _point(lam, M, "lam", ">= 0")
    head = lam_m if lam_m == fzero else mpf_sub(
        lam_m, mpf_mul(lam_m, mpf_log(lam_m, P, rn), P, rn), P, rn)
    return _sandwich(ctx, P, "small-lambda", m, (_small_forms, coefficients.c_coeff, ctx),
                     (lam_m,), _anchored(head, P, lower=False))


def entropy_poisson_large(
    lam, m: int | str = 1, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> BoundReport:
    """Large-mean sandwich: H(lam) in [u - r_m(lam), u] with
    u = log(2 pi lam)/2 + 1/2 + sum_k b(m,k)/lam^k."""
    _check_m(m)
    M, P = ctx.mp, ctx.mp.prec
    lam_m = _point(lam, M, "lam", "> 0")
    two_pi_lam = mpf_mul(mpf_shift(mpf_pi(P, rn), 1), lam_m, P, rn)  # 2 pi exact, as 2 * M.pi
    head = mpf_add(mpf_shift(mpf_log(two_pi_lam, P, rn), -1), mpf_shift(fone, -1), P, rn)
    return _sandwich(ctx, P, "large-lambda", m, (_sandwich_forms, coefficients.poisson_coeffs),
                     (lam_m,), _anchored(head, P, lower=False))


def entropy_poisson_ct(lam, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """Classical upper bound H(lam) <= log(2 pi e (lam + 1/12)) / 2, rounded up at ``ctx.bits``."""
    M, P = ctx.mp, ctx.mp.prec
    lam_m = _point(lam, M, "lam", ">= 0")
    x = mpf_mul(mpf_mul(mpf_shift(mpf_pi(P, rn), 1), mpf_e(P, rn), P, rn),
                mpf_add(lam_m, mpf_div(fone, from_int(12), P, rn), P, rn), P, rn)
    return mp.make_mpf(mpf_pos(mpf_shift(mpf_log(x, P, rn), -1), ctx.bits, round_ceiling))


def _binomial_window(n: int, a: int, b: int, E: int, P: int) -> tuple[int, list[int]]:
    """(lo, w) for B(n, p), p = a/2^E and q = b/2^E exactly: w[k - lo] for k = lo..hi lies within
    |k - mode| + 2^-7 units below 2^P pmf(k)/pmf(mode), walked outward from the mode.

    Outward from k the pmf ratio, at most 1, is (rn/rd)(num/den): rn/rd is b/a down and a/b up,
    and the small integers num and den, k and n - k + 1 down and n - k and k + 1 up, each move
    by one per step.  A step is w (c num) // (g den) >> F, one floor, which loses under one
    unit.  For a short p (E <= 64), or a side with no step, c/g = rn/rd exactly and F = 0.  For
    a wide one, g = 1 and c = floor(rn 2^F/rd), one wide product per step in place of a wide
    division: with F = P + 8 + bl(n) + bl(rd) - bl(rn), bl the bit length, and F > 0 as a side
    with a step has rn/rd <= n, c/2^F lies below rn/rd by under 2^-(P+7+bl(n)) of it, so as w
    <= 2^P a step loses under 2^-(7+bl(n)) units more, under 2^-7 over the at most n steps.

    The ratio keeps falling, so the weights from k on, in either direction, are at most (w_k +
    |k - mode| + 1)/(1 - ratio at k); a side ends before the first k where that is at most n
    units, or at the end of the support.  As 1 - ratio <= 1, that needs w_k + |k - mode| + 1 <=
    n, which is tested before the ratio is formed at full width.
    """
    mode, sides = min(n, (n + 1) * a >> E), []
    for rn, rd, num in ((b, a, mode), (a, b, n - mode)):  # down, then up
        F = P + 8 + n.bit_length() + rd.bit_length() - rn.bit_length() if num and E > 64 else 0
        c, g = ((rn << F) // rd, 1) if F else (rn, rd)
        w, side, den = 1 << P, [], n + 1 - num
        for s in range(1, num + 1):  # the step to k, s = |k - mode|
            w = w * (c * num) // (g * den) >> F
            num, den = num - 1, den + 1
            if num:  # k is not the end of the support
                top = w + s + 1
                if top <= n and top * rd * den <= n * (rd * den - rn * num):
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
    beyond j over their sum s >= 2^P, each sum within e <= n(n+1)/2 + (n+1)/128 + 2n <= 2n^2
    units for n >= 2, the weights' losses and the two tails left out; so T_j is within 2e/s
    <= 2^(2-P) n^2, and S within 2^(3-P) n^3 < 2^-(bits+66) p^2/6 <= 2^-(bits+66) D.  Below
    the window T_j = 1, and that run is one log-factorial difference
    (:func:`symbolic._log_factorial_reader`).  Each log is a fixed-point integer at
    F = 64 + a multiple of 64 >= bits + 70 + 2 bl(n) + bl(bl(n)) fractional bits (the ladder
    below the cap, else one ``mpf_log`` each: :func:`symbolic._logs`), so log(1 - j/n) is
    within 4 bl(n) units and S within 2^(4-F) bl(n) 4n^2 D <= 2^-(bits+66) D.  The head,
    formed at bits + 73 + bl(n) + max(0, -mag p) bits with q exact, is within 2^-(bits+66)
    D.  Their sum, within 2^-(bits+64) D, is one exact quotient, rounded once.
    """
    _check_positive(n, "n", DomainError)
    M = ctx.mp
    p_m = _point(p, M, "p", "in [0,1]")
    if p_m == fzero:
        return mp.make_mpf(p_m)
    _, a, exp, bc = p_m
    E, bl, lost = -exp, n.bit_length(), -min(0, exp + bc)
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
    H = _round64(ctx.bits + 73 + bl + lost)
    q = mpf_sub(fone, p_m)
    q_log_q = q if q == fzero else mpf_mul(q, mpf_log(q, H, rn), H, rn)
    h_man, h_exp = _dyadic(mpf_mul_int(mpf_add(p_m, q_log_q, H, rn), n, H, rn))
    # D = head + total 2^exp / sigma, as one quotient over 2^base
    base = min(h_exp, exp)
    num = (h_man * sigma << h_exp - base) + (total << exp - base)
    return mp.make_mpf(mpf_div(from_man_exp(num, base), from_int(sigma), ctx.bits, rn))


def relative_entropy_bounds(
    n: int, p, m: int | str = 1, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> BoundReport:
    """Large-n sandwich: D(n, p) in [l, l + r~] with l = -(p + log q)/2 + sum_k b~(m,k;p)/n^k.
    D is about p^2/4 against series terms of about 1, so the sum loses 2 (-mag p) bits; it is
    formed at P = ``ctx.mp.prec`` + those beyond 32 of the guard bits, rounded up to 64."""
    _check_m(m)
    _check_positive(n, "n", DomainError)
    M = ctx.mp
    p_m = _point(p, M, "p", "in (0,1)")
    P = M.prec + _round64(max(0, -2 * (p_m[2] + p_m[3]) - 32))  # mag p = exp + bc
    q_m = mpf_sub(fone, p_m, P, rn)
    log_q = mpf_log(q_m, P, rn)
    head = mpf_shift(mpf_neg(mpf_add(p_m, log_q, P, rn)), -1)
    return _sandwich(ctx, P, "relative-entropy", m, (_sandwich_forms, coefficients.binomial_coeffs),
                     (q_m, log_q, from_int(n, P, rn)), _anchored(head, P, lower=True))


def _binomial_entropy(n: int, p, m, ctx, method: str, head: tuple, extra: tuple) -> BoundReport:
    """H(B_{n,p}) = L - D(n, p) - D(n, q), L = log n! - n log n + n, in [head - (s - t) - v - extra,
    head - (s - t)] for L in [head - extra, head] and n checked: D(n, p) + D(n, q) is in
    [s - t, s - t + v], u = pq, t = (1 + log u)/2, s and v the order-m series and gap at (u, log u,
    n) of the sandwiches at p and at q summed (:func:`coefficients._symmetric_coeffs`)."""
    M, P = ctx.mp, ctx.mp.prec
    p_m = _point(p, M, "p", "in (0,1)")
    u = mpf_mul(p_m, mpf_sub(fone, p_m, P, rn), P, rn)
    log_u = mpf_log(u, P, rn)
    t = mpf_shift(mpf_add(log_u, fone, P, rn), -1)
    return _sandwich(ctx, P, method, m, (_sandwich_forms, coefficients._symmetric_coeffs),
                     (u, log_u, from_int(n, P, rn)), lambda s, v: (mpf_sub(mpf_sub(end := mpf_sub(
                         head, mpf_sub(s, t, P, rn), P, rn), v, P, rn), extra, P, rn), end))


def entropy_binomial_bounds(
    n: int, p, m: int | str = 1, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> BoundReport:
    """Sandwich for H(B_{n,p}) through the identity
    H = log n! - n log n + n - D(n, p) - D(n, q), with D(n, p) + D(n, q) replaced
    by its order-m interval in u = pq.  log n! is log Gamma(n + 1) at the working
    precision, so its cost does not grow with n."""
    _check_m(m)
    _check_positive(n, "n", DomainError)
    P = ctx.mp.prec
    head = mpf_sub(mpf_loggamma(from_int(n + 1), P, rn),
                   mpf_mul_int(mpf_log(from_int(n), P, rn), n, P, rn), P, rn)
    head = mpf_add(head, from_int(n), P, rn)
    return _binomial_entropy(n, p, m, ctx, "binomial-corollary", head, fzero)


def entropy_binomial_stirling_m1(n: int, p, ctx: PrecisionContext = DEFAULT_CONTEXT) -> BoundReport:
    """Order-1 binomial entropy sandwich: the order-1 corollary with log n! - n log n + n
    replaced by Stirling's log(2 pi n)/2 + [1/(12n) - 1/(360n^3), 1/(12n)].  In closed form,
    log(2 pi n p q)/2 + 1/2 + [C1/n + C2/n^2 + C3/n^3, C4/n] (:func:`stirling_m1_constants`)."""
    _check_positive(n, "n", DomainError)
    P = ctx.mp.prec
    log_2_pi_n = mpf_log(mpf_mul_int(mpf_shift(mpf_pi(P, rn), 1), n, P, rn), P, rn)
    head = mpf_add(mpf_shift(log_2_pi_n, -1), mpf_div(fone, from_int(12 * n), P, rn), P, rn)
    return _binomial_entropy(n, p, 1, ctx, "binomial-stirling", head,
                             mpf_div(fone, from_int(360 * n**3), P, rn))


def expected_log_poisson_bounds(
    s, m: int | str = 1, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> BoundReport:
    """Sandwich for E[log(N_s + 1)]:
    lower = log s + sum_{k=2}^{2m+1} (-1)^k mu_k(s) / (k (k-1) s^k),
    gap = mu_{2m+2}(s) / ((2m+1) s^(2m+2))."""
    _check_m(m)
    M, P = ctx.mp, ctx.mp.prec
    s_m = _point(s, M, "s", "> 0")
    return _sandwich(ctx, P, "expected-log-poisson", m,
                     (coefficients.expected_log_series, "poisson"), (s_m,),
                     _anchored(mpf_log(s_m, P, rn), P, lower=True))


def expected_log_binomial_bounds(
    n: int, s, m: int | str = 1, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> BoundReport:
    """Sandwich for E[log(B_{n-1,s} + 1)], same shape with mu_k(n, s) and
    powers of ns.  Subtract log(ns) to bound the ratio form."""
    _check_m(m)
    _check_positive(n, "n", DomainError)
    M, P = ctx.mp, ctx.mp.prec
    s_m = _point(s, M, "s", "in (0,1)")
    return _sandwich(ctx, P, "expected-log-binomial", m,
                     (coefficients.expected_log_series, "binomial"), (from_int(n, P, rn), s_m),
                     _anchored(mpf_log(mpf_mul_int(s_m, n, P, rn), P, rn), P, lower=True))


def best_interval(
    bound_fn: Callable[..., BoundReport],
    *args,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
) -> BoundReport:
    """``bound_fn(*args, m="auto", ctx=ctx)``: of the orders AUTO_ORDERS (1..6), the report at
    the order whose evaluated gap is least, the lowest order winning ties (:func:`_sandwich`).
    The intervals need not be nested in m, so the least gap is the honest aggregate."""
    return bound_fn(*args, m="auto", ctx=ctx)
