"""Exact central-moment polynomials of the Poisson and binomial laws.

The Poisson moments mu_k(s) = E[(N_s - s)^k] follow the classical recursion
in the mean; for k >= 2 they are polynomials in s of degree floor(k/2).  The
binomial moments mu_k(n, s) = E[(B_{n,s} - ns)^k] use the derivative
recursion in the success probability and are exact polynomials in both n
and s.  Both recursions have integer coefficients, so they run on tables
{exponent tuple: int}, which the derivation in :mod:`coefficients` reads as
they are; each moment function builds its :class:`LaurentPoly`, in s or in
(n, s), once from its table.  Their brute-force checks, exact rational sums
through Touchard's raw Poisson moments and over the binomial support, are in
:mod:`oracle`, which this module does not import.
"""

from __future__ import annotations

import math
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .symbolic import LaurentPoly, _check_index


@lru_cache(maxsize=None)
def _poisson_table(k: int) -> Mapping[tuple[int], int]:
    """mu_k(s) as {(e,): integer coefficient of s^e} via mu_k = s * sum_{j<=k-2} C(k-1, j) mu_j,
    memoized, and read-only as every caller shares it."""
    if k < 2:
        return MappingProxyType({(0,): 1} if k == 0 else {})
    acc: dict[tuple[int], int] = {}
    for j in range(k - 1):
        w = math.comb(k - 1, j)
        for (e,), c in _poisson_table(j).items():
            acc[e + 1,] = acc.get((e + 1,), 0) + w * c
    assert max(acc)[0] == k // 2, f"degree of mu_{k} should be {k // 2}"
    return MappingProxyType(acc)


@lru_cache(maxsize=None)
def _binomial_table(k: int) -> Mapping[tuple[int, int], int]:
    """mu_k(n, s) as {(a, b): integer coefficient of n^a s^b} via
    mu_k = s(1-s) * [n (k-1) mu_{k-2} + d mu_{k-1} / ds], memoized, and read-only as every
    caller shares it."""
    if k < 2:
        return MappingProxyType({(0, 0): 1} if k == 0 else {})
    inner: dict[tuple[int, int], int] = {}
    for (a, b), c in _binomial_table(k - 2).items():
        inner[a + 1, b] = inner.get((a + 1, b), 0) + (k - 1) * c
    for (a, b), c in _binomial_table(k - 1).items():
        if b:
            inner[a, b - 1] = inner.get((a, b - 1), 0) + b * c
    out: dict[tuple[int, int], int] = {}
    for (a, b), c in inner.items():
        out[a, b + 1] = out.get((a, b + 1), 0) + c
        out[a, b + 2] = out.get((a, b + 2), 0) - c
    return MappingProxyType({e: c for e, c in out.items() if c})


@lru_cache(maxsize=None)
def poisson_central_moment(k: int) -> LaurentPoly:
    """mu_k(s), a polynomial in s with integer coefficients, memoized."""
    _check_index(k, "moment order", 0)
    return LaurentPoly._over(_poisson_table(k), 1)


@lru_cache(maxsize=None)
def binomial_central_moment(k: int) -> LaurentPoly:
    """mu_k(n, s), a polynomial in (n, s) with integer coefficients, memoized."""
    _check_index(k, "moment order", 0)
    return LaurentPoly._over(_binomial_table(k), 1)
