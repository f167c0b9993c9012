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
from typing import Callable, Iterator

import mpmath
from mpmath import mp, mpf

from .symbolic import (
    DEFAULT_CONTEXT,
    DomainError,
    PrecisionContext,
    PrecisionError,
    to_mpf,
)


@dataclass(frozen=True)
class TruncationReceipt:
    """Evidence that a truncated series met the requested accuracy.

    ``rel_err_bound`` is the tail bound divided by the accumulated mass of
    absolute terms (equal to the plain relative error whenever the series
    has nonnegative terms, which is the case for all entropy series here).
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

    ``weights()`` must yield w_0, w_1, ... evaluated at the ambient mpmath
    precision.  Requirement: |w_{j+1} / w_j| is non-increasing once j exceeds
    the mean (true for every weight used in this package: powers of j - lam,
    log j!, log(j + 1), and products thereof).  Whole terms then shrink at
    least geometrically beyond the truncation point, so a single ratio check
    <= 1/2 certifies tail <= 2 * |first neglected term|.
    """
    with ctx.working():
        lam_m = to_mpf(lam)
        if lam_m < 0:
            raise DomainError(f"Poisson mean must be >= 0, got {lam_m}")
        if lam_m == 0:
            w0 = to_mpf(next(iter(weights())))
            return ctx.round(w0), TruncationReceipt(1, mpf(0), mpf(0))

        lam_f = float(lam_m)
        # initial truncation point: mean + 12 sqrt(mean * bits) + bits
        trunc = math.ceil(lam_f + 12.0 * math.sqrt(lam_f * ctx.bits)) + ctx.bits
        target = to_mpf(ctx.target_rel_err)
        half = mpf(1) / 2

        for _ in range(6):
            total = mpf(0)
            abs_total = mpf(0)
            pmf = mpmath.exp(-lam_m)
            neglected: list[mpf] = []
            it = weights()
            for j in range(trunc + 3):
                term = pmf * to_mpf(next(it))
                if j <= trunc:
                    total += term
                    abs_total += abs(term)
                else:
                    neglected.append(abs(term))
                pmf *= lam_m / (j + 1)

            tail = None
            if neglected[0] == 0 and neglected[1] == 0:
                tail = mpf(0)
            elif neglected[0] > 0 and neglected[1] / neglected[0] <= half:
                tail = 2 * neglected[0]
            if tail is not None:
                scale = abs_total if abs_total > 0 else mpf(1)
                if tail <= target * scale:
                    receipt = TruncationReceipt(trunc + 1, tail, ctx.round(tail / scale))
                    return ctx.round(total), receipt
            trunc *= 2

        raise PrecisionError(
            f"could not certify tail <= {ctx.target_rel_err} for lam={lam_m} at {ctx.bits} bits"
        )


def poisson_entropy_oracle(
    lam, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> tuple[mpf, TruncationReceipt]:
    """H(lam) = lam - lam log lam + sum_j pmf(j) log j!, with H(0) = 0.

    log j! is accumulated as a running sum of log j, so no large factorials
    are ever formed.
    """
    with ctx.working():
        lam_m = to_mpf(lam)
        if lam_m < 0:
            raise DomainError(f"lam must be >= 0, got {lam_m}")
        if lam_m == 0:
            return mpf(0), TruncationReceipt(0, mpf(0), mpf(0))

        def log_factorials() -> Iterator[mpf]:
            acc = mpf(0)
            j = 0
            while True:
                yield acc
                j += 1
                acc += mpmath.log(j)

        series, receipt = poisson_expectation(lam_m, log_factorials, ctx)
        value = lam_m - lam_m * mpmath.log(lam_m) + series
        # entropy is strictly positive for lam > 0, so this is a true rel err
        rel = receipt.tail_bound / value if value > 0 else receipt.rel_err_bound
        receipt = TruncationReceipt(receipt.terms_used, receipt.tail_bound, ctx.round(rel))
        return ctx.round(value), receipt


def expected_log_poisson(s, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """E[log(N_s + 1)] by certified series."""
    with ctx.working():
        s_m = to_mpf(s)
        if s_m <= 0:
            raise DomainError(f"s must be > 0, got {s_m}")

        def log_shift() -> Iterator[mpf]:
            j = 0
            while True:
                yield mpmath.log(j + 1)
                j += 1

        value, _ = poisson_expectation(s_m, log_shift, ctx)
    return value


@lru_cache(maxsize=8)
def _log_table(n: int, prec: int) -> tuple[tuple[mpf, ...], tuple[mpf, ...]]:
    """(log i for i = 0..n, log i! for i = 0..n) at ``prec`` mantissa bits.

    One table serves every binomial oracle at the same (n, precision), which
    keeps the finite sums at O(n) multiplications instead of O(n) big-integer
    binomials.
    """
    with mp.workprec(prec):
        logs = [mpf(0)] * (n + 1)
        log_fact = [mpf(0)] * (n + 1)
        acc = mpf(0)
        for i in range(1, n + 1):
            logs[i] = mpmath.log(i)
            acc += logs[i]
            log_fact[i] = acc
    return tuple(logs), tuple(log_fact)


def _binomial_log_pmf(n: int, p: mpf) -> list[mpf]:
    """log of the binomial(n, p) mass function at k = 0..n, for p in (0, 1)."""
    log_p = mpmath.log(p)
    log_q = mpmath.log(1 - p)
    _, log_fact = _log_table(n, mp.prec)
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
    with ctx.working():
        p_m = to_mpf(p)
        if not 0 <= p_m <= 1:
            raise DomainError(f"p must be in [0,1], got {p_m}")
        if p_m == 0 or p_m == 1:
            return mpf(0)
        total = mpf(0)
        for lp in _binomial_log_pmf(n, p_m):
            total -= mpmath.exp(lp) * lp
    return ctx.round(total)


def relative_entropy_oracle(n: int, p, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """D(B_{n,p} || Poisson(np)) by direct summation.

    Uses n(p + q log q) - np log n + sum_k P(k) log(n! / (n-k)!), the n-th
    falling-factorial logs accumulated incrementally.
    """
    _check_n(n)
    with ctx.working():
        p_m = to_mpf(p)
        if not 0 <= p_m <= 1:
            raise DomainError(f"p must be in [0,1], got {p_m}")
        if p_m == 0:
            return mpf(0)
        log_n = mpmath.log(n)
        if p_m == 1:
            # mass concentrated at k = n
            return ctx.round(n - n * log_n + mpmath.loggamma(n + 1))
        q_m = 1 - p_m
        total = n * (p_m + q_m * mpmath.log(q_m)) - n * p_m * log_n
        _, log_fact = _log_table(n, mp.prec)
        for k, lp in enumerate(_binomial_log_pmf(n, p_m)):
            # log(n! / (n-k)!) of the falling factorial
            total += mpmath.exp(lp) * (log_fact[n] - log_fact[n - k])
    return ctx.round(total)


def expected_log_binomial(n: int, s, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """E[log((B_{n-1,s} + 1) / (n s))], exact finite sum over the pmf."""
    _check_n(n)
    with ctx.working():
        s_m = to_mpf(s)
        if not 0 < s_m < 1:
            raise DomainError(f"s must be in (0,1), got {s_m}")
        log_ns = mpmath.log(n * s_m)
        if n == 1:
            return ctx.round(-log_ns)  # B_0 is identically zero
        logs, _ = _log_table(n, mp.prec)
        total = mpf(0)
        for k, lp in enumerate(_binomial_log_pmf(n - 1, s_m)):
            total += mpmath.exp(lp) * (logs[k + 1] - log_ns)
    return ctx.round(total)
