"""Certified two-sided bounds, one routine per inequality.

Every routine returns a :class:`BoundReport` whose interval is guaranteed by
the corresponding theorem to contain the target quantity; the guarantees are
analytic, and evaluation is plain round-to-nearest floating point in
``ctx.mp``, at the context precision plus guard bits (no directed rounding).
Each coefficient set is converted into ``ctx.mp`` once per precision and
evaluated as a unit (:func:`symbolic.compiled`); expansions in 1/lambda and
1/n are then summed by Horner's scheme for stability at large arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from mpmath import mpf

from . import coefficients
from .symbolic import (
    DEFAULT_CONTEXT,
    Interval,
    PrecisionContext,
    _check_n,
    _check_order,
    _point,
    compiled,
    evaluate,
)

METHOD_SMALL_LAMBDA = "small-lambda"
METHOD_LARGE_LAMBDA = "large-lambda"
METHOD_RELATIVE_ENTROPY = "relative-entropy"
METHOD_BINOMIAL_COROLLARY = "binomial-corollary"
METHOD_BINOMIAL_STIRLING = "binomial-stirling"
METHOD_EXPECTED_LOG_POISSON = "expected-log-poisson"
METHOD_EXPECTED_LOG_BINOMIAL = "expected-log-binomial"

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
    lower, upper = ctx.round(lower), ctx.round(upper)
    M = ctx.mp
    return BoundReport(
        interval=Interval(lower, upper),
        midpoint=ctx.round(M.fadd(lower, upper) / 2),
        gap=ctx.round(M.fsub(upper, lower)),
        m=m,
        method=method,
    )


def _horner_inverse(values, y: mpf, first: int = 1) -> mpf:
    """sum_k values[k - first] * y^k, k = first, first + 1, ..., in y's context."""
    acc = y.context.zero
    for v in reversed(values):
        acc = (acc + v) * y
    for _ in range(first - 1):
        acc *= y
    return acc


def _series(derive, m: int) -> tuple:
    """The Horner coefficients b(m, k), k = 1..2m-1, then a(m, k), k = m..2m, of
    the set ``derive(m)`` (fields m, b, a); ``derive`` is part of the cache key."""
    _, b, a = vars(derive(m)).values()
    return (*map(b.get, range(1, 2 * m)), *map(a.get, range(m, 2 * m + 1)))


def entropy_poisson_small(lam, m: int = 1, ctx: PrecisionContext = DEFAULT_CONTEXT) -> BoundReport:
    """Small-mean sandwich for H(lam), valid for every lam >= 0.

    lower = lam - lam log lam + sum_{k=2}^{2m+1} c(k)/k! lam^k, upper stops
    the sum at 2m.  The two differ by O(lam^(2m+1)).
    """
    _check_order(m)
    M = ctx.mp
    lam_m = _point(lam, M, "lam", ">= 0")
    if lam_m == 0:
        return _report(M.zero, M.zero, m, METHOD_SMALL_LAMBDA, ctx)
    base = lam_m - lam_m * M.log(lam_m)
    acc = M.zero
    upper_sum = M.zero
    power = lam_m
    for k in range(2, 2 * m + 2):
        power *= lam_m
        # c(k) has ctx.bits bits, so it enters M exactly
        acc += M.make_mpf(coefficients.c_coeff(k, ctx)._mpf_) * power / math.factorial(k)
        if k == 2 * m:
            upper_sum = acc
    return _report(base + acc, base + upper_sum, m, METHOD_SMALL_LAMBDA, ctx)


def entropy_poisson_large(lam, m: int = 1, ctx: PrecisionContext = DEFAULT_CONTEXT) -> BoundReport:
    """Large-mean sandwich: H(lam) in [u - r_m(lam), u] with
    u = log(2 pi lam)/2 + 1/2 + sum_k b(m,k)/lam^k."""
    _check_order(m)
    M = ctx.mp
    lam_m = _point(lam, M, "lam", "> 0")
    coeffs = compiled(M, M.prec, _series, coefficients.poisson_coeffs, m)
    y = 1 / lam_m
    beta = _horner_inverse(coeffs[:2 * m - 1], y)
    gap = _horner_inverse(coeffs[2 * m - 1:], y, m)
    upper = M.log(2 * M.pi * lam_m) / 2 + M.mpf(1) / 2 + beta
    return _report(upper - gap, upper, m, METHOD_LARGE_LAMBDA, ctx)


def entropy_poisson_ct(lam, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """Classical upper bound H(lam) <= log(2 pi e (lam + 1/12)) / 2."""
    M = ctx.mp
    lam_m = _point(lam, M, "lam", ">= 0")
    return ctx.round(M.log(2 * M.pi * M.e * (lam_m + M.mpf(1) / 12)) / 2)


def relative_entropy_exact(n: int, p, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """Exact D(n, p) = n(p + q log q) + sum_{k=2}^n C(n,k) c~(k) p^k.

    The result is not correctly rounded: each c~(n, k) is rounded to
    ``ctx.bits`` before the sum, which cancels about log2 n bits.  Against
    the oracle at p = 3/10 the error is about 140 ulps at n = 300 and 640
    ulps at n = 1000, at 64 bits.
    """
    _check_n(n)
    M = ctx.mp
    p_m = _point(p, M, "p", "in [0,1]")
    if p_m == 0:
        return mpf(0)
    q_m = 1 - p_m
    total = n * (p_m + (q_m * M.log(q_m) if q_m > 0 else M.zero))
    power = p_m
    for k in range(2, n + 1):
        power *= p_m
        # c~(n, k) has ctx.bits bits, so it enters M exactly
        total += math.comb(n, k) * M.make_mpf(coefficients.c_tilde_coeff(n, k, ctx)._mpf_) * power
    return ctx.round(total)


def relative_entropy_bounds(
    n: int, p, m: int = 1, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> BoundReport:
    """Large-n sandwich: D(n, p) in [l, l + r~] with
    l = -(p + log q)/2 + sum_k b~(m,k;p)/n^k."""
    _check_order(m)
    _check_n(n)
    M = ctx.mp
    p_m = _point(p, M, "p", "in (0,1)")
    q_m = 1 - p_m
    log_q = M.log(q_m)
    form = compiled(M, M.prec, _series, coefficients.binomial_coeffs, m)
    values = list(evaluate(form, M.zero, q_m, log=log_q))
    y = M.mpf(1) / n
    beta = _horner_inverse(values[:2 * m - 1], y)
    gap = _horner_inverse(values[2 * m - 1:], y, m)
    lower = -(p_m + log_q) / 2 + beta
    return _report(lower, lower + gap, m, METHOD_RELATIVE_ENTROPY, ctx)


def entropy_binomial_bounds(
    n: int, p, m: int = 1, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> BoundReport:
    """Sandwich for H(B_{n,p}) through the identity
    H = log n! - n log n + n - D(n, p) - D(n, q), with both D terms replaced
    by their order-m intervals.  log n! is log Gamma(n + 1) at the working
    precision, so its cost does not grow with n."""
    _check_order(m)
    _check_n(n)
    M = ctx.mp
    p_m = _point(p, M, "p", "in (0,1)")
    q_m = 1 - p_m
    base = M.loggamma(n + 1) - n * M.log(n) + n
    d_p = relative_entropy_bounds(n, p_m, m, ctx)
    d_q = relative_entropy_bounds(n, q_m, m, ctx)
    lower = base - d_p.upper - d_q.upper
    upper = base - d_p.lower - d_q.lower
    return _report(lower, upper, m, METHOD_BINOMIAL_COROLLARY, ctx)


def entropy_binomial_stirling_m1(n: int, p, ctx: PrecisionContext = DEFAULT_CONTEXT) -> BoundReport:
    """Order-1 binomial entropy sandwich in closed form:
    log(2 pi n p q)/2 + 1/2 + [C1/n + C2/n^2 + C3/n^3, C4/n]."""
    _check_n(n)
    M = ctx.mp
    p_m = _point(p, M, "p", "in (0,1)")
    q_m = 1 - p_m
    u = p_m * q_m
    c1, c2, c3, c4 = evaluate(compiled(M, M.prec, coefficients.stirling_m1_constants), M.zero, u)
    y = M.mpf(1) / n
    base = M.log(2 * M.pi * n * u) / 2 + M.mpf(1) / 2
    lower = base + _horner_inverse((c1, c2, c3), y)
    upper = base + c4 * y
    return _report(lower, upper, 1, METHOD_BINOMIAL_STIRLING, ctx)


def expected_log_poisson_bounds(
    s, m: int = 1, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> BoundReport:
    """Sandwich for E[log(N_s + 1)]:
    lower = log s + sum_{k=2}^{2m+1} (-1)^k mu_k(s) / (k (k-1) s^k),
    gap = mu_{2m+2}(s) / ((2m+1) s^(2m+2))."""
    _check_order(m)
    M = ctx.mp
    s_m = _point(s, M, "s", "> 0")
    form = compiled(M, M.prec, coefficients.expected_log_series, "poisson", m)
    series, gap = evaluate(form, M.zero, s_m)
    lower = M.log(s_m) + series
    return _report(lower, lower + gap, m, METHOD_EXPECTED_LOG_POISSON, ctx)


def expected_log_binomial_bounds(
    n: int, s, m: int = 1, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> BoundReport:
    """Sandwich for E[log(B_{n-1,s} + 1)], same shape with mu_k(n, s) and
    powers of ns.  Subtract log(ns) to bound the ratio form."""
    _check_order(m)
    _check_n(n)
    M = ctx.mp
    s_m = _point(s, M, "s", "in (0,1)")
    form = compiled(M, M.prec, coefficients.expected_log_series, "binomial", m)
    series, gap = evaluate(form, M.zero, M.mpf(n), s_m)
    lower = M.log(n * s_m) + series
    return _report(lower, lower + gap, m, METHOD_EXPECTED_LOG_BINOMIAL, ctx)


def best_interval(
    bound_fn: Callable[..., BoundReport],
    *args,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
) -> BoundReport:
    """Evaluate the orders of AUTO_ORDERS (1..6) and return the narrowest interval.

    The intervals need not be nested in m, so minimal width is the honest
    aggregate.
    """
    return min((bound_fn(*args, m=m, ctx=ctx) for m in AUTO_ORDERS), key=lambda r: r.gap)
