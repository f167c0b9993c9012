"""Exact arithmetic kernel.

All coefficient derivations run on `fractions.Fraction` end to end, with two
expression types: :class:`LaurentPoly`, one sparse polynomial type in one or
several variables with negative exponents allowed, and :class:`LogLaurent`, a
one-variable Laurent polynomial plus a logarithm term.  Nothing here ever
rounds; numeric evaluation is a separate step done with mpmath at a precision
chosen through :class:`PrecisionContext`.

The two term-wise integration rules that turn moment polynomials into
expansion coefficients live here as well: :func:`integrate_tail` for
``integral_x^inf`` of pure negative powers, and :func:`integrate_to_one` for
``integral_q^1``, where the exponent -1 produces a ``-log q`` term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Union

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import mpf_pos, round_nearest

Scalar = Union[int, Fraction]
Exponent = Union[int, tuple[int, ...]]

# extra mantissa bits used while evaluating, before rounding to ctx.bits
_GUARD_BITS = 64


class DomainError(ValueError):
    """Input lies outside the mathematical domain of the expression."""


def _check_n(n: int) -> None:
    """Raise :class:`DomainError` unless ``n`` is a positive int."""
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")


def _check_order(m: int) -> None:
    """Raise ``ValueError`` unless the expansion order ``m`` is a positive int."""
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"order m must be a positive integer, got {m!r}")


# the words a domain's message prints -> its test; NaN passes none of them
_DOMAINS = {
    ">= 0": lambda x: x >= 0,
    "> 0": lambda x: x > 0,
    "in [0,1]": lambda x: 0 <= x <= 1,
    "in (0,1)": lambda x: 0 < x < 1,
    "in (0,1]": lambda x: 0 < x <= 1,
}


def _point(x, M: mpmath.MPContext, name: str, domain: str) -> mpf:
    """Convert ``x`` into context ``M``; raise :class:`DomainError` unless it
    lies in ``domain``, a key of :data:`_DOMAINS`."""
    x_m = to_mpf(x, M)
    if not _DOMAINS[domain](x_m):
        raise DomainError(f"{name} must be {domain}, got {x_m}")
    return x_m


class NonIntegrableTailError(ValueError):
    """Tail integral diverges: an exponent >= -1 is present."""


class PrecisionError(ArithmeticError):
    """Requested accuracy could not be certified at feasible precision."""


def as_fraction(x: Scalar | str) -> Fraction:
    """Coerce an int, Fraction, or 'num/den' string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def rational_str(x: Scalar) -> str:
    """Canonical 'num/den' form, denominator always present: 1/6, -1/12, 3/1."""
    x = as_fraction(x)
    return f"{x.numerator}/{x.denominator}"


@lru_cache(maxsize=32)
def _mp_context(prec: int) -> mpmath.MPContext:
    """A private mpmath context at ``prec`` bits, made on first use.  No code
    changes its precision, so every caller at ``prec`` can share it."""
    M = mpmath.MPContext()
    M.prec = prec
    return M


@dataclass(frozen=True)
class PrecisionContext:
    """Working mantissa precision in bits, the one precision setting.

    Results are rounded to ``bits``, and an oracle reports a truncated series
    only once its tail is certified at most 2^-``bits`` of its absolute mass.
    Evaluation runs in the private mpmath context :attr:`mp`; no global
    precision is read or set.
    """

    bits: int = 256

    def __post_init__(self) -> None:
        if not isinstance(self.bits, int):
            raise TypeError(f"bits must be an integer, got {self.bits!r}")
        if self.bits < 64:
            raise ValueError(f"bits must be >= 64, got {self.bits}")

    @property
    def mp(self) -> mpmath.MPContext:
        """The private mpmath context at ``bits`` + guard bits."""
        return _mp_context(self.bits + _GUARD_BITS)

    def round(self, x: mpf) -> mpf:
        """Round to nearest at exactly ``bits`` bits, as a default-context mpf."""
        return mp.make_mpf(mpf_pos(x._mpf_, self.bits, round_nearest))


DEFAULT_CONTEXT = PrecisionContext()


def to_mpf(x, M: mpmath.MPContext) -> mpf:
    """Convert int/float/str/Fraction/mpf to an mpf of context ``M`` at its precision."""
    if isinstance(x, Fraction):
        value = M.mpf(x.numerator)
        # dividing by 1 would change no bit, so integers skip the division
        return value if x.denominator == 1 else value / x.denominator
    return M.mpf(x)


def _context_of(*xs) -> mpmath.MPContext:
    """The mpmath context of the first mpf among ``xs``, else DEFAULT_CONTEXT's."""
    return next((x.context for x in xs if hasattr(x, "context")), DEFAULT_CONTEXT.mp)


@dataclass(frozen=True)
class Interval:
    """Certified enclosure: lower <= quantity <= upper."""

    lower: mpf
    upper: mpf

    def __post_init__(self) -> None:
        if not self.lower <= self.upper:
            raise ValueError(f"empty interval: [{self.lower}, {self.upper}]")

    def contains(self, x) -> bool:
        return self.lower <= x <= self.upper


def _exponent(e: Exponent) -> tuple[int, ...]:
    """Canonical exponent key: an int names a one-variable exponent."""
    return tuple(int(x) for x in e) if isinstance(e, tuple) else (int(e),)


def _canonical(d: dict[tuple[int, ...], Fraction]) -> dict[tuple[int, ...], Fraction]:
    """Nonzero terms in ascending exponent order, all in the same variables."""
    if len({len(e) for e in d}) > 1:
        raise ValueError("terms mix different numbers of variables")
    return {e: c for e, c in sorted(d.items()) if c}


class LaurentPoly:
    """Finite sum of c * x_0**e_0 * ... * x_(k-1)**e_(k-1) with Fraction
    coefficients and integer exponents of either sign.

    An exponent is an int for a polynomial in one variable and a tuple of
    ints for several, e.g. (n, s) for the binomial moments; the number of
    variables follows from the exponents given.  Zero coefficients are never
    stored, so structural equality is canonical.
    """

    __slots__ = ("_terms",)

    def __init__(
        self, terms: Mapping[Exponent, Scalar] | Iterable[tuple[Exponent, Scalar]] = ()
    ) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        d: dict[tuple[int, ...], Fraction] = {}
        for e, c in items:
            e = _exponent(e)
            d[e] = d.get(e, 0) + as_fraction(c)
        object.__setattr__(self, "_terms", _canonical(d))

    @classmethod
    def _of(cls, d: dict[tuple[int, ...], Fraction]) -> "LaurentPoly":
        """Build from exponent tuples and Fractions without re-coercing them."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "_terms", _canonical(d))
        return poly

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    def terms(self) -> tuple[tuple[Exponent, Fraction], ...]:
        """Terms sorted by ascending exponent: an int exponent for one
        variable, a tuple for several."""
        return tuple((e[0] if len(e) == 1 else e, c) for e, c in self._terms.items())

    def coeff(self, e: Exponent) -> Fraction:
        return self._terms.get(_exponent(e), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(self._terms.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        d = dict(self._terms)
        for e, c in other._terms.items():
            d[e] = d.get(e, 0) + c
        return LaurentPoly._of(d)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            d: dict[tuple[int, ...], Fraction] = {}
            for e1, c1 in self._terms.items():
                for e2, c2 in other._terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2, strict=True))
                    d[e] = d.get(e, 0) + c1 * c2
            return LaurentPoly._of(d)
        s = as_fraction(other)
        return LaurentPoly._of({e: c * s for e, c in self._terms.items()})

    __rmul__ = __mul__

    def shifted(self, k: Exponent) -> "LaurentPoly":
        """Multiply by the monomial with exponent ``k``."""
        return self * LaurentPoly({k: 1})

    def derivative(self, var: int) -> "LaurentPoly":
        """Partial derivative in variable number ``var`` (0 for one variable)."""
        return LaurentPoly._of(
            {e[:var] + (e[var] - 1,) + e[var + 1:]: c * e[var] for e, c in self._terms.items()}
        )

    def __call__(self, *point):
        """Value at ``point``, one coordinate per variable: exact when every
        coordinate is an int or Fraction, else an mpf in the mpmath context
        of the first mpf coordinate (DEFAULT_CONTEXT's if none), at its precision.

        Terms sharing the last variable's exponent are summed first, and each
        sum is multiplied by that power once; every other power is computed once
        per call.  For one variable this is the ascending-exponent sum of c * x**e.
        """
        if self._terms and len(point) != len(next(iter(self._terms))):
            raise TypeError(f"expected one coordinate per variable, got {len(point)}")
        if all(isinstance(x, (int, Fraction)) for x in point):
            exact = [(self._terms, self._terms.values(), 0)]
            return next(evaluate(exact, Fraction(0), *map(Fraction, point)))
        M = _context_of(*point)
        # the one-expression set (self,), built outside the cache so that one-off
        # polynomials do not evict the bounds' coefficient sets from it
        form = compiled.__wrapped__(M, M.prec, tuple, (self,))
        return next(evaluate(form, M.zero, *(to_mpf(x, M) for x in point)))

    def __repr__(self) -> str:
        if self.is_zero:
            return "LaurentPoly(0)"
        parts = [f"{rational_str(c)}*x^{e}" for e, c in self.terms()]
        return "LaurentPoly(" + " + ".join(parts) + ")"


@dataclass(frozen=True)
class LogLaurent:
    """Laurent polynomial in q plus ``log_coeff * log(q)``.

    Evaluation is defined for q in (0, 1] only, the domain on which the
    binomial-side coefficient functions live.
    """

    laurent: LaurentPoly
    log_coeff: Fraction = Fraction(0)

    @classmethod
    def constant(cls, c: Scalar) -> "LogLaurent":
        return cls(LaurentPoly(((0, c),)), Fraction(0))

    def __add__(self, other: "LogLaurent") -> "LogLaurent":
        return LogLaurent(self.laurent + other.laurent, self.log_coeff + other.log_coeff)

    def __neg__(self) -> "LogLaurent":
        return LogLaurent(-self.laurent, -self.log_coeff)

    def __sub__(self, other: "LogLaurent") -> "LogLaurent":
        return self + (-other)

    def __mul__(self, other: Scalar) -> "LogLaurent":
        s = as_fraction(other)
        return LogLaurent(self.laurent * s, self.log_coeff * s)

    __rmul__ = __mul__

    def __call__(self, q):
        M = _context_of(q)
        form = compiled.__wrapped__(M, M.prec, tuple, (self,))  # uncached, as in LaurentPoly
        return next(evaluate(form, M.zero, _point(q, M, "q", "in (0,1]")))

    def __repr__(self) -> str:
        return f"LogLaurent({self.laurent!r}, log_coeff={rational_str(self.log_coeff)})"


@lru_cache(maxsize=128)  # the bounds' 25 sets of orders 1..6, at five precisions
def compiled(M: mpmath.MPContext, prec: int, derive, *args) -> tuple:
    """``derive(*args)``, exact scalars and expressions, converted into ``M`` once
    per ``prec`` (``mpmath.mp``'s can change): an mpf per scalar, and per expression
    its ascending exponent tuples, their mpf coefficients and its mpf log coefficient."""
    def form(x):
        if isinstance(x, (int, Fraction)):
            return to_mpf(x, M)
        poly, log = (x.laurent, x.log_coeff) if isinstance(x, LogLaurent) else (x, 0)
        return poly._terms, tuple(to_mpf(c, M) for c in poly._terms.values()), to_mpf(log, M)
    return tuple(map(form, derive(*args)))


def evaluate(forms, zero, *point, log=None):
    """Yield each (exponents, coefficients, log coefficient) form's value at ``point``, from
    ``zero`` as in :meth:`LaurentPoly.__call__`; powers and the log (or ``log``) are taken once."""
    last, powers = len(point) - 1, {}
    for exponents, coeffs, log_coeff in forms:
        sums, total = {}, zero
        for e, c in zip(exponents, coeffs):
            for i in range(last):
                c *= powers.get((i, e[i])) or powers.setdefault((i, e[i]), point[i] ** e[i])
            sums[e[last]] = sums[e[last]] + c if e[last] in sums else c
        for e, c in sums.items():
            total += c * (powers.get((last, e)) or powers.setdefault((last, e), point[last] ** e))
        if log_coeff:
            log = point[0].context.log(point[0]) if log is None else log
            total += log_coeff * log
        yield total


def integrate_tail(f: LaurentPoly) -> LaurentPoly:
    """Exact ``integral_x^inf f(s) ds`` as a Laurent polynomial in x.

    Term rule: s**(-k) integrates to x**(-(k-1)) / (k-1).  Every exponent of
    ``f`` must be <= -2, otherwise the tail diverges.
    """
    bad = [e for e, _ in f.terms() if e >= -1]
    if bad:
        raise NonIntegrableTailError(f"exponents {bad} make the tail integral diverge")
    return LaurentPoly((e + 1, c / (-e - 1)) for e, c in f.terms())


def integrate_to_one(f: LaurentPoly) -> LogLaurent:
    """Exact ``integral_q^1 f(s) ds`` as a LogLaurent in q.

    Exponent -1 contributes ``-log q``; exponent e != -1 contributes
    ``(1 - q**(e+1)) / (e+1)``, split into a constant and a power of q.
    """
    out: list[tuple[int, Fraction]] = []
    log_coeff = Fraction(0)
    for e, c in f.terms():
        if e == -1:
            log_coeff -= c
        else:
            out.append((0, c / (e + 1)))
            out.append((e + 1, -c / (e + 1)))
    return LogLaurent(LaurentPoly(out), log_coeff)


def eval_at(expr, point, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """Evaluate any kernel expression at a numeric point, rounded to ctx.bits.

    Accepts a one-variable LaurentPoly or a LogLaurent; the point may be int,
    float, str, Fraction, or mpf.
    """
    return ctx.round(expr(to_mpf(point, ctx.mp)))
