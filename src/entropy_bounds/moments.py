"""Exact central-moment polynomials of the Poisson and binomial laws.

The Poisson moments mu_k(s) = E[(N_s - s)^k] follow the classical recursion
in the mean; for k >= 2 they are polynomials in s of degree floor(k/2).  The
binomial moments mu_k(n, s) = E[(B_{n,s} - ns)^k] use the derivative
recursion in the success probability and are exact polynomials in both n
and s.  Both recursions have integer coefficients, so each runs on the integer
numerators of the :class:`LaurentPoly` moments below it, over denominator 1.
Their brute-force checks, exact rational sums through Touchard's raw Poisson
moments and over the binomial support, are in :mod:`oracle`, which this module
does not import.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .symbolic import LaurentPoly, _check_index


@lru_cache(maxsize=None)
def poisson_central_moment(k: int) -> LaurentPoly:
    """mu_k(s), a polynomial in s with integer coefficients, via
    mu_k = s * sum_{j<=k-2} C(k-1, j) mu_j, memoized."""
    _check_index(k, "moment order", 0)
    if k < 2:
        return LaurentPoly._over({(0,): 1} if k == 0 else {}, 1)
    acc: dict[tuple[int], int] = {}
    for j in range(k - 1):
        w = math.comb(k - 1, j)
        for (e,), c in poisson_central_moment(j)._num.items():
            acc[e + 1,] = acc.get((e + 1,), 0) + w * c
    assert max(acc)[0] == k // 2, f"degree of mu_{k} should be {k // 2}"
    return LaurentPoly._over(acc, 1)


@lru_cache(maxsize=None)
def binomial_central_moment(k: int) -> LaurentPoly:
    """mu_k(n, s), a polynomial in (n, s) with integer coefficients, via
    mu_k = s(1-s) * [n (k-1) mu_{k-2} + d mu_{k-1} / ds], memoized."""
    _check_index(k, "moment order", 0)
    if k < 2:
        return LaurentPoly._over({(0, 0): 1} if k == 0 else {}, 1)
    inner = {(a + 1, b): (k - 1) * c for (a, b), c in binomial_central_moment(k - 2)._num.items()}
    for (a, b), c in binomial_central_moment(k - 1)._num.items():
        if b:
            inner[a, b - 1] = inner.get((a, b - 1), 0) + b * c
    out: dict[tuple[int, int], int] = {}
    for (a, b), c in inner.items():
        out[a, b + 1] = out.get((a, b + 1), 0) + c
        out[a, b + 2] = out.get((a, b + 2), 0) - c
    return LaurentPoly._over(out, 1)
