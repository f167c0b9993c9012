"""Exact central-moment polynomials of the Poisson and binomial laws.

The Poisson moments mu_k(s) = E[(N_s - s)^k] follow the classical recursion
in the mean; for k >= 2 they are polynomials in s of degree floor(k/2).  The
binomial moments mu_k(n, s) = E[(B_{n,s} - ns)^k] use the derivative
recursion in the success probability and are exact polynomials in both n
and s.  Both moment functions return the polynomial itself, a
:class:`LaurentPoly` in s or in (n, s).  Their brute-force checks, exact
rational sums through Touchard's raw Poisson moments and over the binomial
support, are in :mod:`oracle`, which this module does not import.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .symbolic import LaurentPoly, _check_index


@lru_cache(maxsize=None)
def poisson_central_moment(k: int) -> LaurentPoly:
    """mu_k(s) via mu_k = s * sum_{j<=k-2} C(k-1, j) mu_j, memoized."""
    _check_index(k, "moment order", 0)
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
    _check_index(k, "moment order", 0)
    if k == 0:
        return LaurentPoly({(0, 0): 1})
    if k == 1:
        return LaurentPoly()
    prev2 = binomial_central_moment(k - 2)
    prev1 = binomial_central_moment(k - 1)
    s_times_q = LaurentPoly({(0, 1): 1, (0, 2): -1})  # s(1-s)
    inner = (k - 1) * prev2.shifted((1, 0)) + prev1.derivative(1)
    return s_times_q * inner
