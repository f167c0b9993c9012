"""Exact central-moment polynomials of the Poisson and binomial laws.

The Poisson moments mu_k(s) = E[(N_s - s)^k] follow the classical recursion
in the mean; for k >= 2 they are polynomials in s of degree floor(k/2).  The
binomial moments mu_k(n, s) = E[(B_{n,s} - ns)^k] use the derivative
recursion in the success probability and are exact polynomials in both n
and s.  Both moment functions return the polynomial itself, a
:class:`LaurentPoly` in s or in (n, s).  Each comes with a brute-force
oracle: a certified Poisson series, and an exact rational finite sum for the
binomial.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import count

from mpmath import mpf

from . import oracle
from .symbolic import (
    DEFAULT_CONTEXT,
    DomainError,
    LaurentPoly,
    PrecisionContext,
    as_fraction,
    to_mpf,
)


@lru_cache(maxsize=None)
def poisson_central_moment(k: int) -> LaurentPoly:
    """mu_k(s) via mu_k = s * sum_{j<=k-2} C(k-1, j) mu_j, memoized."""
    if k < 0:
        raise ValueError(f"moment order must be >= 0, got {k}")
    if k == 0:
        return LaurentPoly({0: 1})
    if k == 1:
        return LaurentPoly()
    acc = LaurentPoly()
    for j in range(k - 1):
        acc = acc + math.comb(k - 1, j) * poisson_central_moment(j)
    poly = acc.shifted(1)
    assert max(e for e, _ in poly.terms()) == k // 2, f"degree of mu_{k} should be {k // 2}"
    return poly


@lru_cache(maxsize=None)
def binomial_central_moment(k: int) -> LaurentPoly:
    """mu_k(n, s) via mu_k = s(1-s) * [n (k-1) mu_{k-2} + d mu_{k-1} / ds]."""
    if k < 0:
        raise ValueError(f"moment order must be >= 0, got {k}")
    if k == 0:
        return LaurentPoly({(0, 0): 1})
    if k == 1:
        return LaurentPoly()
    prev2 = binomial_central_moment(k - 2)
    prev1 = binomial_central_moment(k - 1)
    s_times_q = LaurentPoly({(0, 1): 1, (0, 2): -1})  # s(1-s)
    inner = (k - 1) * prev2.shifted((1, 0)) + prev1.derivative(1)
    return s_times_q * inner


def moment_oracle_poisson(k: int, s, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """E[(N_s - s)^k] by certified series truncation, independent of the
    moment polynomials."""
    if k < 0:
        raise ValueError(f"moment order must be >= 0, got {k}")
    s_m = to_mpf(s, ctx.mp)
    if s_m <= 0:
        raise DomainError(f"s must be > 0, got {s_m}")
    value, _ = oracle.poisson_expectation(s_m, lambda: ((j - s_m) ** k for j in count()), ctx)
    return value


def moment_oracle_binomial(k: int, n: int, s) -> Fraction:
    """E[(B_{n,s} - ns)^k] as an exact rational finite sum."""
    if k < 0:
        raise ValueError(f"moment order must be >= 0, got {k}")
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    s = as_fraction(s)
    if not 0 < s < 1:
        raise DomainError(f"s must be in (0,1), got {s}")
    q = 1 - s
    mean = n * s
    return sum(
        (math.comb(n, j) * s**j * q ** (n - j) * (j - mean) ** k for j in range(n + 1)),
        Fraction(0),
    )
