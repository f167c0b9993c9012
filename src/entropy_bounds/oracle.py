"""Independent brute-force oracles.

Everything the certified bounds target is recomputed here by direct
summation at high precision: Shannon entropy of the Poisson and binomial
laws, their relative entropy, the expected-log quantities the proofs run
through, and the central moments of both laws.  This module imports only
:mod:`symbolic`, and nothing on the bounds path (moments, coefficients,
bounds) imports it, so a bound and its oracle can only agree when both are
right.  Infinite (Poisson) series are truncated with a certified tail bound;
the binomial sums run through :func:`_binomial_expectation` at working
precision, apart from the exact rational central moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count
from typing import Callable, Iterator

from mpmath import mp, mpf

from .symbolic import (
    DEFAULT_CONTEXT,
    DomainError,
    PrecisionContext,
    PrecisionError,
    _check_n,
    _mp_context,
    _point,
    as_fraction,
    to_mpf,
)


@dataclass(frozen=True)
class TruncationReceipt:
    """Evidence that a truncated series met the working precision.

    ``rel_err_bound`` is the tail bound divided by the accumulated mass of
    absolute terms (equal to the plain relative error whenever the series
    has nonnegative terms, which is the case for all entropy series here);
    :func:`poisson_expectation` reports only once it is at most 2^-(``bits`` + 65).
    """

    terms_used: int
    tail_bound: mpf
    rel_err_bound: mpf


def poisson_expectation(
    lam,
    weights: Callable[[], Iterator],
    ctx: PrecisionContext = DEFAULT_CONTEXT,
) -> tuple[mpf, TruncationReceipt]:
    """Certified E[w(N_lam)] = sum_j e^(-lam) lam^j / j! * w_j.

    ``weights()`` must yield w_0, w_1, ... as ints, Fractions or mpfs; each
    is converted into ``ctx.mp``, so an mpf weight should carry at least the
    working precision ``ctx.bits`` + 64 (compute it in ``ctx.mp``).
    Requirement: |w_{j+1} / w_j| is non-increasing once j exceeds the mean
    (true for every weight used in this package: powers of j - lam,
    log j!, log(j + 1), and products thereof).  The term ratios
    t_{j+1} / t_j then never rise past the mean either, so once the two
    terms after t_J lie past the mean and their ratio r is below 1,
    everything after t_J sums to at most |t_{J+1}| / (1 - r); two zero
    terms certify a zero tail.  The series is summed in one pass and stops
    at the first such J whose tail is at most 2^-(``ctx.bits`` + 65) times
    the summed absolute terms: half an ulp of the working sum, formed
    exactly in ``ctx.mp`` so that no precision underflows it.  A rise in
    |w_{j+1} / w_j| past the mean breaks the requirement and raises
    :class:`PrecisionError`; without one, term ratios fall at least as fast
    as lam / (j + 1), so the sum always stops.
    """
    M = ctx.mp
    lam_m = _point(lam, M, "Poisson mean", ">= 0")
    if lam_m == 0:
        w0 = to_mpf(next(iter(weights())), M)
        return ctx.round(w0), TruncationReceipt(1, mpf(0), mpf(0))

    target = M.ldexp(1, -(M.prec + 1))
    total = abs_total = M.zero
    pmf = M.exp(-lam_m)
    # w_{j-2}, w_{j-1} and t_{j-1}; t_{j-1} is summed once t_j shows it cannot be left out
    w_back = w_prev = t_prev = M.zero
    for j, w in enumerate(weights()):
        w = to_mpf(w, M)
        t = pmf * w
        pmf *= lam_m / (j + 1)
        # |w_j / w_{j-1}| > |w_{j-1} / w_{j-2}|, where a zero w_{j-2} gives no ratio to exceed
        if j > lam_m + 2 and abs(w * w_back) > w_prev**2:
            raise PrecisionError(
                f"|w_(j+1) / w_j| rises past the mean at j = {j - 1} for lam={lam_m}, "
                f"so no tail <= 2^-{ctx.bits} of the mass can be certified"
            )
        # t_{j-1} and t_j are the first two terms left out if the sum stops here
        a, b = abs(t_prev), abs(t)
        if j > lam_m + 1 and (b < a or a == b == 0):
            tail = a * a / (a - b) if b < a else M.zero
            scale = abs_total if abs_total > 0 else M.one
            if tail <= target * scale:
                # the tail bound is reported unrounded, at the working precision
                tail_bound = mp.make_mpf(tail._mpf_)
                receipt = TruncationReceipt(j - 1, tail_bound, ctx.round(tail / scale))
                return ctx.round(total), receipt
        total += t_prev
        abs_total += a
        w_back, w_prev, t_prev = w_prev, w, t
    raise PrecisionError(f"the weights ended before a tail <= 2^-{ctx.bits} was certified")


def poisson_entropy_oracle(
    lam, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> tuple[mpf, TruncationReceipt]:
    """H(lam) = lam - lam log lam + sum_j pmf(j) log j!, with H(0) = 0.

    log j! is accumulated as a running sum of log j, so no large factorials
    are ever formed.
    """
    M = ctx.mp
    lam_m = _point(lam, M, "lam", ">= 0")
    if lam_m == 0:
        return mpf(0), TruncationReceipt(0, mpf(0), mpf(0))

    series, receipt = poisson_expectation(
        lam_m, lambda: accumulate(map(M.log, count(1)), initial=M.zero), ctx
    )
    value = lam_m - lam_m * M.log(lam_m) + series
    # entropy is strictly positive for lam > 0, so this is a true rel err
    rel = M.fdiv(receipt.tail_bound, value) if value > 0 else receipt.rel_err_bound
    receipt = TruncationReceipt(receipt.terms_used, receipt.tail_bound, ctx.round(rel))
    return ctx.round(value), receipt


def expected_log_poisson(s, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """E[log(N_s + 1)] by certified series."""
    M = ctx.mp
    s_m = _point(s, M, "s", "> 0")
    value, _ = poisson_expectation(s_m, lambda: map(M.log, count(1)), ctx)
    return value


def moment_oracle_poisson(k: int, s, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """E[(N_s - s)^k] by certified series truncation, independent of the
    moment polynomials."""
    if k < 0:
        raise ValueError(f"moment order must be >= 0, got {k}")
    s_m = _point(s, ctx.mp, "s", "> 0")
    value, _ = poisson_expectation(s_m, lambda: ((j - s_m) ** k for j in count()), ctx)
    return value


@lru_cache(maxsize=8)
def _log_table(n: int, prec: int) -> tuple[tuple[mpf, ...], tuple[mpf, ...]]:
    """(log i for i = 0..n, log i! for i = 0..n) at ``prec`` mantissa bits.

    One table serves every binomial oracle at the same (n, precision), which
    keeps the finite sums at O(n) multiplications instead of O(n) big-integer
    binomials.
    """
    M = _mp_context(prec)
    logs = (M.zero, *map(M.log, range(1, n + 1)))
    return logs, tuple(accumulate(logs))


def _binomial_expectation(n: int, p: mpf, weight: Callable[[int, mpf], mpf], total: mpf) -> mpf:
    """``total`` + sum_k P(B_{n,p} = k) weight(k, log P(k)), for p in (0, 1).

    The terms are added to ``total`` in ascending k = 0..n at the precision
    of ``p``'s mpmath context, so a caller keeps its summation order by
    passing its first term as ``total``."""
    M = p.context
    log_p = M.log(p)
    log_q = M.log(1 - p)
    _, log_fact = _log_table(n, M.prec)
    for k in range(n + 1):
        lp = log_fact[n] - log_fact[k] - log_fact[n - k] + k * log_p + (n - k) * log_q
        total += M.exp(lp) * weight(k, lp)
    return total


def binomial_entropy_oracle(n: int, p, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """H(B_{n,p}) = -sum_k P(k) log P(k), exact finite sum (0 log 0 = 0)."""
    _check_n(n)
    M = ctx.mp
    p_m = _point(p, M, "p", "in [0,1]")
    if p_m == 0 or p_m == 1:
        return mpf(0)
    return ctx.round(_binomial_expectation(n, p_m, lambda _, lp: -lp, M.zero))


def relative_entropy_oracle(n: int, p, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """D(B_{n,p} || Poisson(np)) by direct summation.

    Uses n(p + q log q) - np log n + sum_k P(k) log(n! / (n-k)!), the
    falling-factorial logs read from the log-factorial table.
    """
    _check_n(n)
    M = ctx.mp
    p_m = _point(p, M, "p", "in [0,1]")
    if p_m == 0:
        return mpf(0)
    log_n = M.log(n)
    if p_m == 1:
        # mass concentrated at k = n
        return ctx.round(n - n * log_n + M.loggamma(n + 1))
    q_m = 1 - p_m
    base = n * (p_m + q_m * M.log(q_m)) - n * p_m * log_n
    _, log_fact = _log_table(n, M.prec)
    total = _binomial_expectation(n, p_m, lambda k, _: log_fact[n] - log_fact[n - k], base)
    return ctx.round(total)


def expected_log_binomial(n: int, s, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """E[log((B_{n-1,s} + 1) / (n s))], exact finite sum over the pmf."""
    _check_n(n)
    M = ctx.mp
    s_m = _point(s, M, "s", "in (0,1)")
    log_ns = M.log(n * s_m)
    # log i for i = 0..n, from the table the sum over B_{n-1,s} reads
    logs = _log_table(n - 1, M.prec)[0] + (M.log(n),)
    total = _binomial_expectation(n - 1, s_m, lambda k, _: logs[k + 1] - log_ns, M.zero)
    return ctx.round(total)


def moment_oracle_binomial(k: int, n: int, s) -> Fraction:
    """E[(B_{n,s} - ns)^k] as an exact rational finite sum."""
    if k < 0:
        raise ValueError(f"moment order must be >= 0, got {k}")
    _check_n(n)
    s = as_fraction(s)
    if not 0 < s < 1:
        raise DomainError(f"s must be in (0,1), got {s}")
    q = 1 - s
    mean = n * s
    return sum(
        (math.comb(n, j) * s**j * q ** (n - j) * (j - mean) ** k for j in range(n + 1)),
        Fraction(0),
    )
