"""Exact arithmetic kernel.

All coefficient derivations run on `fractions.Fraction` end to end, with one
expression type: :class:`LaurentPoly`, a sparse polynomial in one or several
variables with negative exponents allowed.  A binomial coefficient function is
one over (q, L), L standing for log q with exponent 0 or 1.  Nothing here ever
rounds; numeric evaluation is a separate step, in Python integers rounded once
per expression (:func:`evaluate`), at a precision chosen through :class:`PrecisionContext`.

The two term-wise integration rules that turn moment polynomials into
expansion coefficients live here as well: :func:`integrate_tail` for
``integral_x^inf`` of pure negative powers, and :func:`integrate_to_one` for
``integral_q^1``, where the exponent -1 produces a ``-log q`` term.  So does
the one fixed-point ladder of log i! (:func:`_log_factorials`), and only this
module knows its unit and its cap: the coefficients, exact D(n, p) and the
oracles read logarithms of integers through :func:`_logs` and
:func:`_log_factorial_reader`, which apply the cap and return the unit's
exponent beside their integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import isqrt, prod
from operator import sub
from typing import Callable, Iterable, Mapping, Union

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import (
    from_int,
    mpf_log,
    mpf_loggamma,
    mpf_pos,
    normalize,
    round_nearest,
    to_fixed,
)

Scalar = Union[int, Fraction]
Exponent = Union[int, tuple[int, ...]]

# extra mantissa bits used while evaluating, before rounding to ctx.bits
_GUARD_BITS = 64
# log-factorial entries carry this many fractional bits past the precision they are asked at
_TABLE_BITS = 64
# log i! is tabulated below this index and taken from loggamma at and above it
_TABLE_CAP = 1 << 17


class DomainError(ValueError):
    """Input lies outside the mathematical domain of the expression."""


def _check_n(n: int) -> None:
    """Raise :class:`DomainError` unless ``n`` is a positive int, bool refused."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")


def _check_order(m: int) -> None:
    """Raise ``ValueError`` unless the expansion order ``m`` is a positive int, bool refused."""
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ValueError(f"order m must be a positive integer, got {m!r}")


def _check_index(k: int, name: str, least: int | None = None) -> None:
    """Raise ``ValueError`` unless the index ``k`` is an int, bool refused, not below ``least``."""
    if isinstance(k, bool) or not isinstance(k, int):
        raise ValueError(f"{name} must be an integer, got {k!r}")
    if least is not None and k < least:
        raise ValueError(f"{name} must be >= {least}, got {k}")


# the words a domain's message prints -> its test; NaN passes none, and _point refuses inf
_DOMAINS = {
    ">= 0": lambda x: x >= 0,
    "> 0": lambda x: x > 0,
    "in [0,1]": lambda x: 0 <= x <= 1,
    "in (0,1)": lambda x: 0 < x < 1,
}


def _point(x, M: mpmath.MPContext, name: str, domain: str) -> mpf:
    """Convert ``x`` into context ``M``; raise :class:`DomainError` unless it
    is finite and lies in ``domain``, a key of :data:`_DOMAINS`."""
    x_m = to_mpf(x, M)
    if not (_DOMAINS[domain](x_m) and M.isfinite(x_m)):
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


def _round64(bits: int) -> int:
    """``bits`` rounded up to a multiple of 64, so that few contexts and tables are made."""
    return -(-bits // 64) * 64


def to_mpf(x, M: mpmath.MPContext) -> mpf:
    """Convert int/float/str/Fraction/mpf to an mpf of context ``M`` at its precision.  A
    Fraction, or an int wider than ``M.prec``, is rounded once, to nearest, from its integer
    quotient to over ``M.prec`` + 1 bits and a sticky bit, which lies on the same side of every
    tie as the rest of the quotient; so no full-width int reaches mpmath, whose conversion
    strips trailing zeros in time that grows faster than the width."""
    if isinstance(x, int) and x.bit_length() > M.prec:
        x = Fraction(x)
    if not isinstance(x, Fraction):
        return M.mpf(x)
    num, den = x.numerator, x.denominator
    shift = M.prec + 2 + den.bit_length() - num.bit_length()
    man, rest = divmod(abs(num) << shift, den) if shift >= 0 else divmod(abs(num), den << -shift)
    man = man << 1 | bool(rest)
    return M.make_mpf(normalize(num < 0, man, -shift - 1, man.bit_length(), M.prec, round_nearest))


@lru_cache(maxsize=128)
def _log_factorials(size: int, prec: int) -> tuple[int, ...]:
    """log i! for i = 0..size-1 in units of 2^-(``prec`` + 64), size a power of two: the one
    source of fixed-point logarithms of integers, log i being entry i less entry i - 1.

    Each rung of the ladder extends the one below it: a prime's log is one
    ``mpf_log``, and a composite's is the exact sum of the logs of two
    smaller factors.  A priori error bound: a prime's log is taken at
    enough bits to be within one unit before it is truncated to an integer,
    so within two after; then log i, a sum of at most log2 i prime logs, is
    within 2 log2 i units, and log i! within 2 i log2 i < 2^23 units below
    the cap, that is within 2^-(``prec`` + 41).
    """
    if size <= 2:
        return (0, 0)
    half = size // 2
    below = _log_factorials(half, prec)
    frac = prec + _TABLE_BITS
    wp = frac + 8 + size.bit_length().bit_length()
    # factor[i - half] divides i and lies in (1, i), or is 0 when i is prime
    factor = [0] * half
    for d in range(2, isqrt(size - 1) + 1):
        first = -(-half // d) * d
        factor[first - half :: d] = [d] * len(range(first, size, d))

    log = [0, *map(sub, below[1:], below)]  # log[i] = log i, for 0 < i < half
    logs = [
        log[f] + log[i // f] if f else to_fixed(mpf_log(from_int(i), wp), frac)
        for i, f in enumerate(factor, half)
    ]
    return below + tuple(accumulate(logs, initial=below[-1]))[1:]


def _log_factorial_reader(prec: int) -> tuple[Callable[[int], int], int]:
    """(read, exp) for one call: read(i) is log i! in units of 2^exp, exp = -(``prec`` + 64),
    within 2^-(``prec`` + 41).  Below the cap it reads the ladder rung that first holds i and
    moves up a rung only when i passes the end of the one it holds, so it builds no rung that a
    lone read of its largest i would not.  At and above the cap it is one loggamma, within 2
    units, which keeps the memory of a huge mean or n at O(1) per precision."""
    frac, rung = prec + _TABLE_BITS, ()

    def read(i: int) -> int:
        nonlocal rung
        if i < len(rung):
            return rung[i]
        if i >= _TABLE_CAP:
            return to_fixed(mpf_loggamma(from_int(i + 1), frac + 2 * i.bit_length() + 8), frac)
        rung = _log_factorials(max(2, 1 << i.bit_length()), prec)
        return rung[i]

    return read, -frac


def _logs(args, prec: int, ladder: bool) -> tuple[list[int], int]:
    """(logs, exp): log a in units of 2^exp, exp = -(``prec`` + 64), for each positive integer
    a of ``args``.  When ``ladder`` and the largest a lies below the cap, T[a] - T[a - 1] from
    the log-factorial ladder T, within 2 log2 a units; else one ``mpf_log`` each, within 2
    units, so that no ladder is built for them."""
    frac, top = prec + _TABLE_BITS, max(args)
    if ladder and top < _TABLE_CAP:
        T = _log_factorials(1 << max(1, top.bit_length()), prec)
        return [T[a] - T[a - 1] for a in args], -frac
    g = top.bit_length().bit_length()  # |log a| < 2^g
    return [to_fixed(mpf_log(from_int(a), frac + 8 + g), frac) for a in args], -frac


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
        """Value at ``point``, one coordinate per variable: exact when every coordinate is
        an int or Fraction, else an mpf (:func:`evaluate`) in the mpmath context of the
        first mpf coordinate (DEFAULT_CONTEXT's if none), at its precision."""
        if self._terms and len(point) != len(next(iter(self._terms))):
            raise TypeError(f"expected one coordinate per variable, got {len(point)}")
        if all(isinstance(x, (int, Fraction)) for x in point):
            return sum((c * prod(Fraction(x) ** k for x, k in zip(point, e))
                        for e, c in self._terms.items()), Fraction(0))
        M = next((x.context for x in point if hasattr(x, "context")), DEFAULT_CONTEXT.mp)
        # uncached, so that one-off polynomials do not evict the bounds' compiled forms
        return evaluate(M, *(to_mpf(x, M) for x in point))(_form(self, M))

    def __repr__(self) -> str:
        if self.is_zero:
            return "LaurentPoly(0)"
        parts = [f"{rational_str(c)}*x^{e}" for e, c in self.terms()]
        return "LaurentPoly(" + " + ".join(parts) + ")"


class LogLaurent(LaurentPoly):
    """A LaurentPoly over (q, L), L standing for log q, as :func:`integrate_to_one` returns it,
    read as its L-free part in q and its coefficient of L.  Arithmetic gives a plain LaurentPoly."""

    # ROADMAP item 11 deletes this view once perfbench reads coeff((e, 0)) and coeff((0, 1))
    __slots__ = ()

    @property
    def laurent(self) -> LaurentPoly:
        return LaurentPoly._of({e[:1]: c for e, c in self._terms.items() if not e[1]})

    @property
    def log_coeff(self) -> Fraction:
        return self.coeff((0, 1))


def _form(x, M: mpmath.MPContext) -> tuple:
    """Per term of the exact expression ``x``, its nonzero (variable, exponent) pairs and
    its coefficient rounded into ``M`` by :func:`to_mpf`, as :func:`_dyadic` (man, exp)."""
    return tuple((tuple((i, k) for i, k in enumerate(e) if k), *_dyadic(to_mpf(c, M)))
                 for e, c in x._terms.items())


def _dyadic(x: mpf) -> tuple[int, int]:
    """The finite mpf ``x`` as (man, exp), its exact value man * 2^exp."""
    sign, man, exp, _ = x._mpf_
    if not man and exp:
        raise ValueError(f"not a finite number: {x}")
    return -man if sign else man, exp


def _climb(powers: dict, point, key: tuple[int, int], wide: int) -> tuple[int, int]:
    """Extend the ladder of coordinate i in ``powers`` from its top rung to key = (i, k), and
    return x_i^k as (man, exp): x^1 is exact, x^-1 is one integer division, and each further
    power is the one before it times x^1 or x^-1, truncated to ``wide`` bits."""
    i, k = key
    step = 1 if k > 0 else -1
    if (i, step) not in powers:
        man, exp = _dyadic(point[i])
        shift = wide + man.bit_length()
        powers[i, step] = (man, exp) if step > 0 else ((1 << shift) // man, -shift - exp)
    top = k
    while (i, top) not in powers:  # the rungs run unbroken from x^step, so this finds the top
        top -= step
    (u_man, u_exp), (man, exp) = powers[i, step], powers[i, top]
    for j in range(top + step, k + step, step):
        man, exp = man * u_man, exp + u_exp
        drop = max(man.bit_length() - wide, 0)
        man, exp = powers[i, j] = man >> drop, exp + drop
    return man, exp


def evaluate(M: mpmath.MPContext, *point) -> Callable[[tuple], mpf]:
    """The evaluator at ``point``, one mpf of ``M`` per coordinate: a function that returns the
    value of each form it is given, on power ladders shared by every form it is asked for.  With
    P = ``M.prec``, each coordinate's powers come from one ladder (:func:`_climb`) at wide = P +
    40 bits: x^-1 lies within 2^-wide of its value, relative, and each rung adds a truncation of
    at most 2^(1-wide), so x^k lies within 1.5|k| 2^(1-wide) for any |k| < 2^64, whatever order
    the rungs are asked for in.  Each term is an exact integer product truncated to one shared
    exponent P + 64 bits below the largest term, and their exact sum is rounded once to P bits.
    So for up to 2^30 terms, K being the largest sum of |k| in one term, v lies within |v| 2^-P
    + (1.5K 2^(1-wide) + 2^-(P+32)) sum |c' x^e| of the exact sum of c' x^e, c' the form's
    coefficients.  For K <= 255 that is |v| 2^-P + 2^-(P+30) sum |c' x^e|, and as compiled c'
    is within |c| 2^-P of c, so v is within |v| 2^-P + 2^(2-P) sum |c x^e| of the exact value.
    Exact terms with no bit below the shared exponent that cancel give exact zero."""
    prec, make = M.prec, M.make_mpf
    wide, powers = prec + 40, {}

    def value(form: tuple) -> mpf:
        terms = []
        for keys, man, exp in form:
            for key in keys:
                p_man, p_exp = powers.get(key) or _climb(powers, point, key, wide)
                man, exp = man * p_man, exp + p_exp
            terms.append((man, exp))
        base = max((e + m.bit_length() for m, e in terms if m), default=0) - prec - 64
        total = sum(m << (e - base) if e >= base else m >> (base - e) for m, e in terms)
        sign, total = (1, -total) if total < 0 else (0, total)
        return make(normalize(sign, total, base, total.bit_length(), prec, round_nearest))

    return value


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
    """Exact ``integral_q^1 f(s) ds`` as a LaurentPoly over (q, L), L standing for log q.

    Exponent -1 contributes ``-L``; exponent e != -1 contributes
    ``(1 - q**(e+1)) / (e+1)``, split into a constant and a power of q.
    """
    out: list[tuple[tuple[int, int], Fraction]] = []
    for e, c in f.terms():
        if e == -1:
            out.append(((0, 1), -c))
        else:
            out.append(((0, 0), c / (e + 1)))
            out.append(((e + 1, 0), -c / (e + 1)))
    return LogLaurent(out)

