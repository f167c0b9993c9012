"""Derivation of every expansion coefficient from first principles.

Nothing in this module is hard-coded.  The large-argument coefficients are
term-by-term integrals of one exact sandwich for E[log(X + 1)] per law, built
from central-moment polynomials (:func:`expected_log_series`); the bounds on
E[log(X + 1)] evaluate the same sandwich.  The whole chain, from the moment
recursions through the sandwich, its integrals and the p <-> q symmetrization,
is :class:`LaurentPoly` arithmetic, on integer numerators over one
denominator per polynomial.
The small-argument coefficients are forward differences of logarithms of
integers (:func:`symbolic._logs`), each one alternating sum over its k
logarithms in exact fixed-point integer arithmetic, at a precision fixed in
advance by an error bound for its one order (see :func:`_log_difference`),
and rounded once, to nearest.
Published tables exist only in the tests, as golden data.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, round_nearest

from .moments import binomial_central_moment, poisson_central_moment
from .symbolic import (
    DEFAULT_CONTEXT,
    LaurentPoly,
    PrecisionContext,
    _check_index,
    _check_positive,
    _logs,
    _record,
    _round64,
    integrate_tail,
    integrate_to_one,
)


class CoeffSet(_record("CoeffSet", "m b a")):
    """Large-argument coefficients of order m of one law.

    ``b[k]`` (k = 1..2m-1) are the expansion terms, ``a[k]`` (k = m..2m) the
    gap terms: exact rationals for the Poisson law, LaurentPolys over
    (q, log q), q = 1 - p, for the binomial.  A gap integrand is an even
    central moment, so every rational a(m, k) is nonnegative.
    """

    __slots__ = ()

    def __new__(cls, m: int, b: Mapping[int, Fraction | LaurentPoly],
                a: Mapping[int, Fraction | LaurentPoly]) -> CoeffSet:
        if set(b) != set(range(1, 2 * m)):
            raise ValueError(f"b indices must cover 1..{2 * m - 1}, got {sorted(b)}")
        if set(a) != set(range(m, 2 * m + 1)):
            raise ValueError(f"a indices must cover {m}..{2 * m}, got {sorted(a)}")
        if any(not isinstance(v, LaurentPoly) and v < 0 for v in a.values()):
            raise ValueError("gap coefficients a(m, k) must be nonnegative")
        return tuple.__new__(cls, (m, b, a))

    # the benchmark harness (perfbench) reads a binomial set's b~ and a~ by these names
    b_tilde = property(lambda self: self.b)
    a_tilde = property(lambda self: self.a)


# law -> j -> mu_j / mean^j, its central moment over its mean: s if Poisson, ns if binomial
_OVER_MEAN = {"poisson": lambda j: poisson_central_moment(j).shifted(-j),
              "binomial": lambda j: binomial_central_moment(j).shifted((-j, -j))}


@lru_cache(maxsize=None, typed=True)  # m = 2.0 or True misses m = 2 or 1, and is refused
def expected_log_series(law: str, m: int) -> tuple[LaurentPoly, LaurentPoly]:
    """The order-m sandwich log mean + [lower, lower + gap] for E[log(X + 1)],
    as the Laurent polynomials (lower, gap):

        lower = sum_{j=2}^{2m+1} (-1)^j mu_j / (j (j-1) mean^j),
        gap = mu_{2m+2} / ((2m+1) mean^(2m+2)).

    ``"poisson"``: X = N_s with mean s, polynomials in s.  ``"binomial"``:
    X = B_{n-1,s}, with mu_j and the mean ns those of B_{n,s}, in (n, s).
    Order m's lower is order m - 1's plus its gap over 2m, less the term j = 2m + 1, order 0's
    lower being 0 and its gap mu_2 / mean^2.
    """
    _check_positive(m, "order m")
    over_mean = _OVER_MEAN[law]
    for k in range(1, m - 1):  # ascending, so that no call recurses past the order below it
        expected_log_series(law, k)
    lower, gap = expected_log_series(law, m - 1) if m > 1 else (LaurentPoly(), over_mean(2))
    j = 2 * m + 1
    lower = lower + (Fraction(1, j - 1) * gap - Fraction(1, j * (j - 1)) * over_mean(j))
    return lower, Fraction(1, j) * over_mean(j + 1)


@lru_cache(maxsize=None)
def poisson_coeffs(m: int) -> CoeffSet:
    """Derive a(m, k) and b(m, k) by tail integration of the expected-log
    sandwich, through H'(lam) = E[log(N_lam + 1)] - log lam.

    The lower series starts with 1/(2s), which integrates to the
    log(2 pi lam)/2 + 1/2 part of the expansion; -b integrates the rest, and
    a integrates the gap.
    """
    lower, gap = expected_log_series("poisson", m)
    b, a = (integrate_tail(f).terms() for f in (LaurentPoly({-1: Fraction(1, 2)}) - lower, gap))
    return CoeffSet(m=m, b={-e: c for e, c in b}, a={-e: c for e, c in a})


def _integrate_pieces(f: LaurentPoly) -> dict[int, LaurentPoly]:
    """{k: integral_q^1 of the n^-(k+1) piece of f(n, s) ds} for k >= 1."""
    pieces: dict[int, dict[tuple[int], int]] = {}
    for (n_exp, s_exp), c in f._num.items():
        pieces.setdefault(-n_exp - 1, {})[s_exp,] = c
    return {k: integrate_to_one(LaurentPoly._over(t, f._den)) for k, t in pieces.items() if k >= 1}


@lru_cache(maxsize=None)
def binomial_coeffs(m: int) -> CoeffSet:
    """Derive a~(m, k; p) and b~(m, k; p) as LaurentPolys over (q, log q), through
    D(n, p) = n integral_q^1 E[log((B_{n-1,s} + 1) / (ns))] ds.

    The coefficient of n^-k is the integral of the n^-(k+1) piece of the
    expected-log sandwich.  The n^-1 piece, (1 - s)/(2ns), integrates to the
    leading term -(p + log q)/2.
    """
    lower, gap = expected_log_series("binomial", m)
    return CoeffSet(m=m, b=_integrate_pieces(lower), a=_integrate_pieces(gap))


def _log_difference(args: range, bits: int) -> mpf:
    """The forward difference Delta^r log(a_j) at j = 0, r = K-1, for a run a_0..a_r of K >= 2
    consecutive positive integers, ascending or descending, rounded once to nearest at ``bits``
    from diff 2^exp, an integer within 2^-(bits+64) of its value, relative.

    Each log a is an integer at F = -exp fractional bits, F a multiple of 64 so that runs,
    precisions and the oracles share ladders (:func:`symbolic._logs`): T[a] - T[a-1] from the
    log-factorial ladder T, within e = 2 log2 M units of 2^-F, M the largest
    argument; or, when M reaches 16 times the run's length or the ladder's cap, one
    ``mpf_log``, within 2 units.  Delta^r, the exact integer sum
    sum_j (-1)^(r-j) C(r, j) log a_j, is then within 2^r e units.
    As log x = integral_0^inf (e^-t - e^-xt) dt/t, with u = 1 - e^-t, |Delta^r log| is the
    integral over (0, 1) of u^r (1-u)^(a-1) / -log(1-u), a the least of a_0..a_r, and
    -log(1-u) <= u/(1-u) bounds it below by (r-1)! a!/(a+r)!.  So taking

        F >= bits + 68 + log2 e + ceil(r + log2((a+1)...(a+r)) - log2 (r-1)!)

    bounds the relative error by 2^-(bits+64).
    """
    r, top = len(args) - 1, max(args[0], args[-1])
    log_e = (2 * top.bit_length()).bit_length()
    # log2 of (a + 1)...(a + r): the arguments a_0..a_r less the least
    span = sum(math.log2(max(a, b)) for a, b in zip(args, args[1:]))
    prec = _round64(bits + 4 + log_e + math.ceil(r + span - math.lgamma(r) / math.log(2)))
    logs, exp = _logs(args, prec, top < 16 * len(args))
    diff, binom = 0, 1  # diff = sum_{i <= j} (-1)^(j-i) C(r, i) log a_i, binom = C(r, j)
    for j, log in enumerate(logs):
        diff = binom * log - diff
        binom = binom * (r - j) // (j + 1)
    return mp.make_mpf(from_man_exp(diff, exp, bits, round_nearest))


@lru_cache(maxsize=None, typed=True)  # k = 2.0 or True misses k = 2 or 1, and is refused
def c_coeff(k: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """Small-argument coefficient c(k) = sum_j (-1)^(k-1-j) C(k-1, j) log(j+1),
    the (k-1)-th forward difference of log(j + 1) at j = 0.

    Its sign is (-1)^k.
    """
    _check_index(k, "k", 2)
    return _log_difference(range(1, k + 1), ctx.bits)


def c_tilde_coeff(n: int, k: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """Binomial analogue: sum_j (-1)^(k-1-j) C(k-1, j) log(n - j), 2 <= k <= n,
    the (k-1)-th forward difference of log(n - j) at j = 0."""
    _check_index(k, "k")
    _check_index(n, "n")
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    return _log_difference(range(n, n - k, -1), ctx.bits)


def _symmetrize_pq(f: LaurentPoly, rows: dict[int, list[int]] | None = None) -> LaurentPoly:
    """f(q, log q) + f(p, log p) rewritten exactly over (u, log u), u = pq, for any f.

    With p + q = 1, Girard-Waring gives p^e + q^e = sum_{i <= e/2} (-1)^i
    e/(e-i) C(e-i, i) u^i for e >= 1 and 2 for e = 0; for e < 0 it is that
    sum at |e| times u^e.  The log term keeps weight 1, as log p + log q = log u.  The
    weights are integers, so the sum runs on f's numerators over its denominator.  ``rows``
    holds the row of weights of each |e| >= 1, formed on first use: a caller passes one dict
    to every f of a set, whose exponents repeat.
    """
    d: dict[tuple[int, int], int] = {}
    rows = {} if rows is None else rows
    for (e, log), c in f._num.items():
        a = abs(e)
        if a and a not in rows:
            rows[a] = [(-1) ** i * a * math.comb(a - i, i) // (a - i) for i in range(a // 2 + 1)]
        for i, w in enumerate(rows[a] if a else [2 - log]):
            key = (i + min(e, 0), log)
            d[key] = d.get(key, 0) + c * w
    return LaurentPoly._over(d, f._den)


@lru_cache(maxsize=None)
def _symmetric_coeffs(m: int) -> CoeffSet:
    """:func:`binomial_coeffs` (m) with each b~ and a~ symmetrized in p <-> q
    (:func:`_symmetrize_pq`): the coefficients of D(n, p) + D(n, q) over (u, log u), u = pq."""
    cs, rows = binomial_coeffs(m), {}
    return CoeffSet(m, *({k: _symmetrize_pq(f, rows) for k, f in d.items()} for d in (cs.b, cs.a)))


@lru_cache(maxsize=None)
def stirling_m1_constants() -> tuple[LaurentPoly, LaurentPoly, LaurentPoly, LaurentPoly]:
    """The four constants of the order-1 binomial entropy bound, over (u, log u), u = pq.

    The order-1 symmetric set (:func:`_symmetric_coeffs`) with the classical
    Stirling bounds on log n!, 1/(12n) - 1/(360n^3) below and 1/(12n) above.
    Returned as (C1, C2, C3, C4): lower C1/n + C2/n^2 + C3/n^3, upper C4/n.
    """
    cs = _symmetric_coeffs(1)
    c4 = LaurentPoly({(0, 0): Fraction(1, 12)}) - cs.b[1]
    return c4 - cs.a[1], -cs.a[2], LaurentPoly({(0, 0): Fraction(-1, 360)}), c4
