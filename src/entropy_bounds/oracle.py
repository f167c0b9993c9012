"""Independent brute-force oracles.

Everything the certified bounds target is recomputed here by direct
summation at high precision: Shannon entropy of the Poisson and binomial
laws, their relative entropy, and the expected-log quantities the proofs
run through.  None of these routines touch the expansion machinery, so a
bound and its oracle can only agree when both are right.

Infinite (Poisson) series are truncated with a certified tail bound; finite
(binomial) sums are evaluated exactly term by term at working precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, count
from typing import Callable, Iterator

from mpmath import mp, mpf

from .symbolic import (
    DEFAULT_CONTEXT,
    DomainError,
    PrecisionContext,
    PrecisionError,
    _mp_context,
    to_mpf,
)


@dataclass(frozen=True)
class TruncationReceipt:
    """Evidence that a truncated series met the working precision.

    ``rel_err_bound`` is the tail bound divided by the accumulated mass of
    absolute terms (equal to the plain relative error whenever the series
    has nonnegative terms, which is the case for all entropy series here);
    :func:`poisson_expectation` reports only once it is at most 2^-``bits``.
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
    log j!, log(j + 1), and products thereof).  Whole terms then shrink at
    least geometrically beyond the truncation point, so a single ratio check
    <= 1/2 certifies tail <= 2 * |first neglected term|.  A truncation is
    accepted only when that tail is at most 2^-``ctx.bits`` times the summed
    absolute terms, a target formed exactly in ``ctx.mp`` so that no
    precision underflows it.
    """
    M = ctx.mp
    lam_m = to_mpf(lam, M)
    if lam_m < 0:
        raise DomainError(f"Poisson mean must be >= 0, got {lam_m}")
    if lam_m == 0:
        w0 = to_mpf(next(iter(weights())), M)
        return ctx.round(w0), TruncationReceipt(1, mpf(0), mpf(0))

    lam_f = float(lam_m)
    # initial truncation point: mean + 12 sqrt(mean * bits) + bits
    trunc = math.ceil(lam_f + 12.0 * math.sqrt(lam_f * ctx.bits)) + ctx.bits
    target = M.ldexp(1, -ctx.bits)
    half = M.mpf(1) / 2

    for _ in range(6):
        total = M.zero
        abs_total = M.zero
        pmf = M.exp(-lam_m)
        neglected: list[mpf] = []
        it = weights()
        for j in range(trunc + 3):
            term = pmf * to_mpf(next(it), M)
            if j <= trunc:
                total += term
                abs_total += abs(term)
            else:
                neglected.append(abs(term))
            pmf *= lam_m / (j + 1)

        tail = None
        if neglected[0] == 0 and neglected[1] == 0:
            tail = M.zero
        elif neglected[0] > 0 and neglected[1] / neglected[0] <= half:
            tail = 2 * neglected[0]
        if tail is not None:
            scale = abs_total if abs_total > 0 else M.one
            if tail <= target * scale:
                # the tail bound is reported unrounded, at the working precision
                tail_bound = mp.make_mpf(tail._mpf_)
                receipt = TruncationReceipt(trunc + 1, tail_bound, ctx.round(tail / scale))
                return ctx.round(total), receipt
        trunc *= 2

    raise PrecisionError(
        f"could not certify tail <= 2^-{ctx.bits} of the mass for lam={lam_m}"
    )


def poisson_entropy_oracle(
    lam, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> tuple[mpf, TruncationReceipt]:
    """H(lam) = lam - lam log lam + sum_j pmf(j) log j!, with H(0) = 0.

    log j! is accumulated as a running sum of log j, so no large factorials
    are ever formed.
    """
    M = ctx.mp
    lam_m = to_mpf(lam, M)
    if lam_m < 0:
        raise DomainError(f"lam must be >= 0, got {lam_m}")
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
    s_m = to_mpf(s, M)
    if s_m <= 0:
        raise DomainError(f"s must be > 0, got {s_m}")
    value, _ = poisson_expectation(s_m, lambda: map(M.log, count(1)), ctx)
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


def _binomial_log_pmf(n: int, p: mpf) -> list[mpf]:
    """log of the binomial(n, p) mass function at k = 0..n, for p in (0, 1),
    at the precision of ``p``'s mpmath context."""
    M = p.context
    log_p = M.log(p)
    log_q = M.log(1 - p)
    _, log_fact = _log_table(n, M.prec)
    return [
        log_fact[n] - log_fact[k] - log_fact[n - k] + k * log_p + (n - k) * log_q
        for k in range(n + 1)
    ]


def _check_n(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")


def binomial_entropy_oracle(n: int, p, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """H(B_{n,p}) = -sum_k P(k) log P(k), exact finite sum (0 log 0 = 0)."""
    _check_n(n)
    M = ctx.mp
    p_m = to_mpf(p, M)
    if not 0 <= p_m <= 1:
        raise DomainError(f"p must be in [0,1], got {p_m}")
    if p_m == 0 or p_m == 1:
        return mpf(0)
    total = M.zero
    for lp in _binomial_log_pmf(n, p_m):
        total -= M.exp(lp) * lp
    return ctx.round(total)


def relative_entropy_oracle(n: int, p, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """D(B_{n,p} || Poisson(np)) by direct summation.

    Uses n(p + q log q) - np log n + sum_k P(k) log(n! / (n-k)!), the n-th
    falling-factorial logs accumulated incrementally.
    """
    _check_n(n)
    M = ctx.mp
    p_m = to_mpf(p, M)
    if not 0 <= p_m <= 1:
        raise DomainError(f"p must be in [0,1], got {p_m}")
    if p_m == 0:
        return mpf(0)
    log_n = M.log(n)
    if p_m == 1:
        # mass concentrated at k = n
        return ctx.round(n - n * log_n + M.loggamma(n + 1))
    q_m = 1 - p_m
    total = n * (p_m + q_m * M.log(q_m)) - n * p_m * log_n
    _, log_fact = _log_table(n, M.prec)
    for k, lp in enumerate(_binomial_log_pmf(n, p_m)):
        # log(n! / (n-k)!) of the falling factorial
        total += M.exp(lp) * (log_fact[n] - log_fact[n - k])
    return ctx.round(total)


def expected_log_binomial(n: int, s, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """E[log((B_{n-1,s} + 1) / (n s))], exact finite sum over the pmf."""
    _check_n(n)
    M = ctx.mp
    s_m = to_mpf(s, M)
    if not 0 < s_m < 1:
        raise DomainError(f"s must be in (0,1), got {s_m}")
    log_ns = M.log(n * s_m)
    if n == 1:
        return ctx.round(-log_ns)  # B_0 is identically zero
    logs, _ = _log_table(n, M.prec)
    total = M.zero
    for k, lp in enumerate(_binomial_log_pmf(n - 1, s_m)):
        total += M.exp(lp) * (logs[k + 1] - log_ns)
    return ctx.round(total)
