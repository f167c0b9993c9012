"""Derivation of every expansion coefficient from first principles.

Nothing in this module is hard-coded.  The large-argument coefficients are
term-by-term integrals of one exact sandwich for E[log(X + 1)] per law, built
from central-moment polynomials (:func:`expected_log_series`); the bounds on
E[log(X + 1)] evaluate the same sandwich.  The small-argument coefficients
are forward differences of logarithms, taken in exact fixed-point integer
arithmetic at a precision fixed in advance by an error bound (see
:func:`_log_differences`).  Published tables exist only in the test suite, as
golden data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from mpmath import mp, mpf
from mpmath.libmp import from_int, from_man_exp, mpf_log, round_nearest, to_fixed

from .moments import binomial_central_moment, poisson_central_moment
from .symbolic import (
    DEFAULT_CONTEXT,
    LaurentPoly,
    LogLaurent,
    PrecisionContext,
    integrate_tail,
    integrate_to_one,
)


@dataclass(frozen=True)
class PoissonCoeffSet:
    """Large-argument Poisson coefficients of order m.

    ``b[k]`` (k = 1..2m-1) are the expansion terms, ``a[k]`` (k = m..2m) the
    gap terms; all exact rationals.  The gap integrand is an even central
    moment, so every a(m, k) is nonnegative.
    """

    m: int
    b: Mapping[int, Fraction]
    a: Mapping[int, Fraction]

    def __post_init__(self) -> None:
        if set(self.b) != set(range(1, 2 * self.m)):
            raise ValueError(f"b indices must cover 1..{2 * self.m - 1}, got {sorted(self.b)}")
        if set(self.a) != set(range(self.m, 2 * self.m + 1)):
            raise ValueError(f"a indices must cover {self.m}..{2 * self.m}, got {sorted(self.a)}")
        if any(v < 0 for v in self.a.values()):
            raise ValueError("gap coefficients a(m, k) must be nonnegative")


@dataclass(frozen=True)
class BinomialCoeffSet:
    """Large-n binomial coefficients of order m, as functions of q = 1 - p.

    Each entry is a LogLaurent in q, defined on q in (0, 1].
    """

    m: int
    b_tilde: Mapping[int, LogLaurent]
    a_tilde: Mapping[int, LogLaurent]

    def __post_init__(self) -> None:
        if set(self.b_tilde) != set(range(1, 2 * self.m)):
            raise ValueError(f"b~ indices must cover 1..{2 * self.m - 1}")
        if set(self.a_tilde) != set(range(self.m, 2 * self.m + 1)):
            raise ValueError(f"a~ indices must cover {self.m}..{2 * self.m}")


# law -> (central moment mu_j, exponent of mean^-j): the Poisson mean is s,
# the binomial mean is ns
_LAWS = {
    "poisson": (poisson_central_moment, lambda j: -j),
    "binomial": (binomial_central_moment, lambda j: (-j, -j)),
}


@lru_cache(maxsize=None)
def expected_log_series(law: str, m: int) -> tuple[LaurentPoly, LaurentPoly]:
    """The order-m sandwich log mean + [lower, lower + gap] for E[log(X + 1)],
    as the Laurent polynomials (lower, gap):

        lower = sum_{j=2}^{2m+1} (-1)^j mu_j / (j (j-1) mean^j),
        gap = mu_{2m+2} / ((2m+1) mean^(2m+2)).

    ``"poisson"``: X = N_s with mean s, polynomials in s.  ``"binomial"``:
    X = B_{n-1,s}, with mu_j and the mean ns those of B_{n,s}, in (n, s).
    """
    if m < 1:
        raise ValueError(f"order m must be >= 1, got {m}")
    moment, inverse_mean_power = _LAWS[law]
    lower = LaurentPoly()
    for j in range(2, 2 * m + 2):
        lower = lower + Fraction((-1) ** j, j * (j - 1)) * moment(j).shifted(inverse_mean_power(j))
    gap = Fraction(1, 2 * m + 1) * moment(2 * m + 2).shifted(inverse_mean_power(2 * m + 2))
    return lower, gap


@lru_cache(maxsize=None)
def poisson_coeffs(m: int) -> PoissonCoeffSet:
    """Derive a(m, k) and b(m, k) by tail integration of the expected-log
    sandwich, through H'(lam) = E[log(N_lam + 1)] - log lam.

    The lower series starts with 1/(2s), which integrates to the
    log(2 pi lam)/2 + 1/2 part of the expansion; -b integrates the rest, and
    a integrates the gap.
    """
    lower, gap = expected_log_series("poisson", m)
    b, a = (integrate_tail(f).terms() for f in (LaurentPoly({-1: Fraction(1, 2)}) - lower, gap))
    return PoissonCoeffSet(m=m, b={-e: c for e, c in b}, a={-e: c for e, c in a})


def _integrate_pieces(f: LaurentPoly) -> dict[int, LogLaurent]:
    """{k: integral_q^1 of the n^-(k+1) piece of f(n, s) ds} for k >= 1."""
    pieces: dict[int, dict[int, Fraction]] = {}
    for (n_exp, s_exp), c in f.terms():
        pieces.setdefault(-n_exp - 1, {})[s_exp] = c
    return {k: integrate_to_one(LaurentPoly(t)) for k, t in pieces.items() if k >= 1}


@lru_cache(maxsize=None)
def binomial_coeffs(m: int) -> BinomialCoeffSet:
    """Derive a~(m, k; p) and b~(m, k; p) as LogLaurent functions of q, through
    D(n, p) = n integral_q^1 E[log((B_{n-1,s} + 1) / (ns))] ds.

    The coefficient of n^-k is the integral of the n^-(k+1) piece of the
    expected-log sandwich.  The n^-1 piece, (1 - s)/(2ns), integrates to the
    leading term -(p + log q)/2.
    """
    lower, gap = expected_log_series("binomial", m)
    return BinomialCoeffSet(m=m, b_tilde=_integrate_pieces(lower), a_tilde=_integrate_pieces(gap))


def _log_differences(args: range, bits: int) -> tuple[mpf, ...]:
    """Leading forward differences Delta^r log(a_j) at j = 0, r = 1..K-1,
    for a run a_0..a_{K-1} of consecutive positive integers, ascending or
    descending, each rounded once to ``bits``.

    The logs are fixed-point integers at P fractional bits, differenced by
    exact integer subtraction.  A priori error bound, with M the largest
    argument and 2^g > log2 M >= |log a|: each log is taken at P + 8 + g
    bits, so its error is below one unit of 2^-P, and truncating it to a
    fixed-point integer adds less than one more.  Each entry is thus within
    2 units, and Delta^r, a sum of C(r, j) entries, within 2^(r+1) units.  By
    the mean value theorem |Delta^r log| = (r-1)!/xi^r >= (r-1)!/M^r, so the
    relative error is at most 2^(r+1-P) M^r / (r-1)!.  Taking

        P = bits + 64 + max_r ceil(r + 1 + r log2 M - log2 (r-1)!) + 4

    keeps every difference within 2^-(bits+64) of its true value, relative,
    before the one rounding to ``bits``.
    """
    top = max(args[0], args[-1])
    g = top.bit_length().bit_length()
    prec = bits + 68 + max(
        math.ceil(r + 1 + r * math.log2(top) - math.lgamma(r) / math.log(2))
        for r in range(1, len(args))
    )
    row = [to_fixed(mpf_log(from_int(a), prec + 8 + g), prec) for a in args]
    out = []
    while len(row) > 1:
        row = [b - a for a, b in zip(row, row[1:])]
        out.append(mp.make_mpf(from_man_exp(row[0], -prec, bits, round_nearest)))
    return tuple(out)


# c's tables get a cache of their own, so that a run of exact D(n, p) cannot
# evict them.  Their ladder starts at depth 16, as the small-lambda bound asks
# for a few low c(k); exact D(n, p) asks for every c~(n, k), so its starts at 64.
_c_tables = lru_cache(maxsize=8)(_log_differences)
_c_tilde_tables = lru_cache(maxsize=8)(_log_differences)


def _depth(k: int, top: float, first: int) -> int:
    """Depth of the table that serves index k when arguments run ``top`` deep.

    Depths run ``first``, 2 ``first``, ... while at most top/2, then top: a
    lone small k costs O(k^2), not O(top^2), and a loop over k = 2..top
    builds a few tables whose entries, but for the last, add up to at most a
    third of the last one's.
    """
    depth = max(first, 1 << (k - 1).bit_length())
    return depth if 2 * depth <= top else top


@lru_cache(maxsize=None)
def c_coeff(k: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """Small-argument coefficient c(k) = sum_j (-1)^(k-1-j) C(k-1, j) log(j+1),
    the (k-1)-th forward difference of log(j + 1) at j = 0.

    Its sign is (-1)^k.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return _c_tables(range(1, _depth(k, math.inf, 16) + 1), ctx.bits)[k - 2]


def c_tilde_coeff(n: int, k: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """Binomial analogue: sum_j (-1)^(k-1-j) C(k-1, j) log(n - j), 2 <= k <= n,
    the (k-1)-th forward difference of log(n - j) at j = 0."""
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    return _c_tilde_tables(range(n, n - _depth(k, n, 64), -1), ctx.bits)[k - 2]


@lru_cache(maxsize=None)
def _power_sum_poly(e: int) -> LaurentPoly:
    """p^e + q^e as a polynomial in u = pq, using p + q = 1.

    Newton's identity: s_0 = 2, s_1 = 1, s_e = s_{e-1} - u s_{e-2}.
    """
    if e == 0:
        return LaurentPoly({0: 2})
    prev, cur = LaurentPoly({0: 2}), LaurentPoly({0: 1})
    for _ in range(e - 1):
        prev, cur = cur, cur - prev.shifted(1)
    return cur


def _symmetrize_pq(f: LogLaurent) -> LogLaurent:
    """f(q) + f(p) rewritten exactly as a LogLaurent in u = pq.

    Valid for any f: each p^e + q^e is symmetric in (p, q), hence a
    polynomial in pq once p + q = 1; for e < 0 it is s_{|e|}(u) * u^e.  The
    log part uses log p + log q = log u.
    """
    acc = LaurentPoly()
    for e, c in f.laurent.terms():
        acc = acc + c * _power_sum_poly(abs(e)).shifted(min(e, 0))
    return LogLaurent(acc, f.log_coeff)


@lru_cache(maxsize=None)
def stirling_m1_constants() -> tuple[LogLaurent, LogLaurent, LogLaurent, LogLaurent]:
    """The four constants of the order-1 binomial entropy bound, in u = pq.

    Assembled from the order-1 binomial coefficient functions symmetrized in
    p <-> q, combined with the classical two-sided Stirling bounds on log n!
    (1/(12n) - 1/(360n^3) below, 1/(12n) above).  Returned as (C1, C2, C3, C4):
    lower bound C1/n + C2/n^2 + C3/n^3, upper bound C4/n.
    """
    cs = binomial_coeffs(1)
    sym_b = _symmetrize_pq(cs.b_tilde[1])
    sym_a1 = _symmetrize_pq(cs.a_tilde[1])
    sym_a2 = _symmetrize_pq(cs.a_tilde[2])
    twelfth = LogLaurent.constant(Fraction(1, 12))
    c4 = twelfth - sym_b
    c1 = c4 - sym_a1
    c2 = -sym_a2
    c3 = LogLaurent.constant(Fraction(-1, 360))
    return c1, c2, c3, c4
