"""Exact central-moment polynomials of the Poisson and binomial laws.

Both laws obey mu_k = V [(k-1) N mu_{k-2} + d mu_{k-1} / ds] in their mean parameter s, with
(V, N) = (s(1-s), n) for mu_k(n, s) = E[(B_{n,s} - ns)^k] and (s, 1) for its n -> infinity
limit mu_k(s) = E[(N_s - s)^k]: polynomials with integer coefficients, mu_k(s) of degree
floor(k/2) for k >= 2.  Each is memoized and fills the orders below it in ascending order, so a
cold call at any k recurses one level.  The Poisson recursion is :class:`LaurentPoly` arithmetic.
The binomial one is one fused loop on the integer numerators of the moments below it, 8 ms for
k <= 42 against 20 ms as LaurentPoly operations (best of 7, 2-core host, Python 3.11.7).  Their
brute-force checks, exact rational sums through Touchard's raw Poisson moments and over the
binomial support, are in :mod:`oracle`, which this module does not import.
"""

from __future__ import annotations

from functools import lru_cache

from .symbolic import LaurentPoly, _check_index


@lru_cache(maxsize=None)
def poisson_central_moment(k: int) -> LaurentPoly:
    """mu_k(s) = E[(N_s - s)^k], by the recursion at (V, N) = (s, 1)."""
    _check_index(k, "moment order", 0)
    if k < 2:
        return LaurentPoly({0: 1} if k == 0 else {})
    for j in range(2, k - 1):  # ascending, so that no call recurses past the order below it
        poisson_central_moment(j)
    mu = ((k - 1) * poisson_central_moment(k - 2)
          + poisson_central_moment(k - 1).derivative(0)).shifted(1)
    assert mu.coeff(k // 2) and not mu.coeff(k // 2 + 1), f"degree of mu_{k} should be {k // 2}"
    return mu


@lru_cache(maxsize=None)
def binomial_central_moment(k: int) -> LaurentPoly:
    """mu_k(n, s) = E[(B_{n,s} - ns)^k], by the recursion at (V, N) = (s(1-s), n)."""
    _check_index(k, "moment order", 0)
    if k < 2:
        return LaurentPoly._over({(0, 0): 1} if k == 0 else {}, 1)
    for j in range(2, k - 1):  # ascending, as above
        binomial_central_moment(j)
    inner = {(a + 1, b): (k - 1) * c for (a, b), c in binomial_central_moment(k - 2)._num.items()}
    for (a, b), c in binomial_central_moment(k - 1)._num.items():
        if b:
            inner[a, b - 1] = inner.get((a, b - 1), 0) + b * c
    out: dict[tuple[int, int], int] = {}
    for (a, b), c in inner.items():
        out[a, b + 1] = out.get((a, b + 1), 0) + c
        out[a, b + 2] = out.get((a, b + 2), 0) - c
    return LaurentPoly._over(out, 1)
