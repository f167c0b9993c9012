"""Exact arithmetic kernel.

All coefficient derivations are exact end to end, with one expression type:
:class:`LaurentPoly`, a sparse polynomial in one or several variables with
negative exponents allowed and rational coefficients, held as integer
numerators over one denominator, so that its arithmetic runs on integers.  A
binomial coefficient function is one over (q, L), L standing for log q with
exponent 0 or 1.  Nothing here ever rounds; numeric evaluation is a separate
step, in Python integers rounded once per expression (:func:`evaluate`), at a
precision chosen through :class:`PrecisionContext`.

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

from collections import namedtuple
from collections.abc import Callable, Collection, Iterable, Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, isqrt, lcm, prod
from operator import add, sub
from typing import Union

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import (
    fone,
    from_int,
    fzero,
    mpf_log,
    mpf_loggamma,
    mpf_lt,
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


def _check_positive(x: int, name: str, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` unless ``x``, n or the order m, is a positive int, bool refused."""
    if isinstance(x, bool) or not isinstance(x, int) or x < 1:
        raise error(f"{name} must be a positive integer, got {x!r}")


def _check_index(k: int, name: str, least: int | None = None) -> None:
    """Raise ``ValueError`` unless the index ``k`` is an int, bool refused, not below ``least``."""
    if isinstance(k, bool) or not isinstance(k, int):
        raise ValueError(f"{name} must be an integer, got {k!r}")
    if least is not None and k < least:
        raise ValueError(f"{name} must be >= {least}, got {k}")


# the words a domain's message prints -> its test of a finite raw value (sign, man, exp, bc)
_DOMAINS = {
    ">= 0": lambda x: not x[0],
    "> 0": lambda x: not x[0] and x[1],
    "in [0,1]": lambda x: not x[0] and not mpf_lt(fone, x),
    "in (0,1)": lambda x: not x[0] and x[1] and mpf_lt(x, fone),
}


def _point(x, M: mpmath.MPContext, name: str, domain: str) -> tuple:
    """``x`` as a raw libmp value at ``M.prec`` (:func:`_raw`); raise :class:`DomainError`
    unless it is finite and lies in ``domain``, a key of :data:`_DOMAINS`."""
    x_m = _raw(x, M)
    if not ((x_m[1] or x_m == fzero) and _DOMAINS[domain](x_m)):
        raise DomainError(f"{name} must be {domain}, got {M.make_mpf(x_m)}")
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


def _record(name: str, fields: str) -> type:
    """The named tuple type ``name`` of ``fields``, for a subclass that checks its fields in
    ``__new__``: its ``_make``, and so ``_replace``, build through that ``__new__``."""
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


class PrecisionContext(_record("PrecisionContext", "bits")):
    """Working mantissa precision in bits, the one precision setting.

    Results are rounded to ``bits``, and an oracle reports a truncated series
    only once its tail is certified at most 2^-``bits`` of its absolute mass.
    Evaluation runs in the private mpmath context :attr:`mp`; no global
    precision is read or set.
    """

    __slots__ = ()

    def __new__(cls, bits: int = 256) -> PrecisionContext:
        if not isinstance(bits, int):
            raise TypeError(f"bits must be an integer, got {bits!r}")
        if bits < 64:
            raise ValueError(f"bits must be >= 64, got {bits}")
        return tuple.__new__(cls, (bits,))

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
    """Convert int/float/str/Fraction/mpf to an mpf of context ``M`` (:func:`_raw`)."""
    return M.make_mpf(_raw(x, M))


def _raw(x, M: mpmath.MPContext) -> tuple:
    """int/float/str/Fraction/mpf ``x`` as a raw libmp value at ``M.prec``, rounded to nearest: a
    Fraction, or an int wider than ``M.prec``, by :func:`_quotient`, else as ``M.mpf`` reads it."""
    if isinstance(x, Fraction) or isinstance(x, int) and x.bit_length() > M.prec:
        return _quotient(x.numerator, x.denominator, M.prec)
    return from_int(x) if isinstance(x, int) else M.mpf(x)._mpf_


def _quotient(num: int, den: int, prec: int, exp: int = 0) -> tuple:
    """num/den 2^``exp``, den > 0, rounded once, to nearest, to a raw value at ``prec`` bits from
    its integer quotient to over ``prec`` + 1 bits and a sticky bit, which lies on the same side
    of every tie as the rest of the quotient; so no full-width int reaches mpmath, whose
    conversion strips trailing zeros in time that grows faster than the width."""
    shift = prec + 2 + den.bit_length() - num.bit_length()
    man, rest = divmod(abs(num) << shift, den) if shift >= 0 else divmod(abs(num), den << -shift)
    man = man << 1 | bool(rest)
    return normalize(num < 0, man, exp - shift - 1, man.bit_length(), prec, round_nearest)


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


def _exponent(e: Exponent) -> tuple[int, ...]:
    """Canonical exponent key: an int names a one-variable exponent.  Each component must be an
    int, bool refused (:func:`_check_index`)."""
    e = e if isinstance(e, tuple) else (e,)
    for k in e:
        _check_index(k, "exponent")
    return e


def _agree(a: Collection[tuple[int, ...]], b: Collection[tuple[int, ...]]) -> None:
    """Raise ``ValueError`` unless the exponents ``a`` and ``b``, each of one length, share it."""
    if a and b and len(next(iter(a))) != len(next(iter(b))):
        raise ValueError("terms mix different numbers of variables")


class LaurentPoly:
    """Finite sum of c * x_0**e_0 * ... * x_(k-1)**e_(k-1) with rational coefficients and
    integer exponents of either sign.

    An exponent is an int for a polynomial in one variable and a tuple of ints for several,
    e.g. (n, s) for the binomial moments; the number of variables follows from the exponents
    given.  The coefficients are integer numerators ``_num``, {exponent tuple: int}, over one
    denominator ``_den``, in canonical form, held in no order: no zero numerator, ``_den`` > 0
    and gcd(den, *num) = 1, so that structural equality is canonical.
    """

    __slots__ = ("_num", "_den")

    def __init__(
        self, terms: Mapping[Exponent, Scalar] | Iterable[tuple[Exponent, Scalar]] = ()
    ) -> None:
        d: dict[tuple[int, ...], Fraction] = {}
        for e, c in terms.items() if isinstance(terms, Mapping) else terms:
            e = _exponent(e)
            d[e] = d.get(e, 0) + as_fraction(c)
        if len(set(map(len, d))) > 1:
            raise ValueError("terms mix different numbers of variables")
        den = lcm(*(c.denominator for c in d.values()))
        self._set({e: c.numerator * (den // c.denominator) for e, c in d.items()}, den)

    def _set(self, num: dict[tuple[int, ...], int], den: int) -> "LaurentPoly":
        """Hold num / den, den > 0, in canonical form, keeping ``num`` if canonical; return self."""
        if 0 in num.values():
            num = {e: c for e, c in num.items() if c}
        g = gcd(den, *num.values())
        object.__setattr__(self, "_num", {e: c // g for e, c in num.items()} if g > 1 else num)
        object.__setattr__(self, "_den", den // g)
        return self

    @classmethod
    def _over(cls, num: dict[tuple[int, ...], int], den: int) -> "LaurentPoly":
        return object.__new__(cls)._set(num, den)

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    def terms(self) -> tuple[tuple[Exponent, Fraction], ...]:
        """Terms sorted by ascending exponent: an int exponent for one
        variable, a tuple for several."""
        return tuple((e[0] if len(e) == 1 else e, Fraction(c, self._den))
                     for e, c in sorted(self._num.items()))

    def coeff(self, e: Exponent) -> Fraction:
        return Fraction(self._num.get(_exponent(e), 0), self._den)

    @property
    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentPoly)
                and (self._den, self._num) == (other._den, other._num))

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._num.items())))

    def _plus(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        """self + sign * other, over the lcm of the two denominators."""
        _agree(self._num, other._num)
        den = lcm(self._den, other._den)
        u, v = den // self._den, sign * (den // other._den)
        d = {e: c * u for e, c in self._num.items()}
        for e, c in other._num.items():
            d[e] = d.get(e, 0) + c * v
        return LaurentPoly._over(d, den)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._plus(other, 1) if isinstance(other, LaurentPoly) else NotImplemented

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._plus(other, -1) if isinstance(other, LaurentPoly) else NotImplemented

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._over({e: -c for e, c in self._num.items()}, self._den)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            _agree(self._num, other._num)
            d: dict[tuple[int, ...], int] = {}
            for e1, c1 in self._num.items():
                for e2, c2 in other._num.items():
                    e = tuple(map(add, e1, e2))
                    d[e] = d.get(e, 0) + c1 * c2
            return LaurentPoly._over(d, self._den * other._den)
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return LaurentPoly._over({e: c * n for e, c in self._num.items()},
                                     self._den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def shifted(self, k: Exponent) -> "LaurentPoly":
        """Multiply by the monomial with exponent ``k``."""
        k = _exponent(k)
        _agree(self._num, (k,))
        return LaurentPoly._over({tuple(map(add, e, k)): c for e, c in self._num.items()},
                                 self._den)

    def derivative(self, var: int) -> "LaurentPoly":
        """Partial derivative in variable number ``var`` (0 for one variable)."""
        return LaurentPoly._over({e[:var] + (e[var] - 1,) + e[var + 1:]: c * e[var]
                                  for e, c in self._num.items()}, self._den)

    def __call__(self, *point):
        """Value at ``point``, one coordinate per variable: exact when every coordinate is
        an int or Fraction, else an mpf (:func:`evaluate`) in the mpmath context of the
        first mpf coordinate (DEFAULT_CONTEXT's if none), at its precision."""
        if self._num and len(point) != len(next(iter(self._num))):
            raise TypeError(f"expected one coordinate per variable, got {len(point)}")
        if all(isinstance(x, (int, Fraction)) for x in point):
            return sum((c * prod(Fraction(x) ** k for x, k in zip(point, e))
                        for e, c in self._num.items()), Fraction(0)) / self._den
        M = next((x.context for x in point if hasattr(x, "context")), DEFAULT_CONTEXT.mp)
        # uncached, so that one-off polynomials do not evict the bounds' compiled forms
        return M.make_mpf(evaluate(M.prec, *(_raw(x, M) for x in point))(_form(self)))

    def __repr__(self) -> str:
        parts = " + ".join(f"{rational_str(c)}*x^{e}" for e, c in self.terms())
        return f"LaurentPoly({parts or 0})"


class LogLaurent(LaurentPoly):
    """A LaurentPoly over (q, L), L standing for log q, as :func:`integrate_to_one` returns it,
    read as its L-free part in q and its coefficient of L.  Arithmetic gives a plain LaurentPoly."""

    # ROADMAP item 11 deletes this view once perfbench reads coeff((e, 0)) and coeff((0, 1))
    __slots__ = ()

    @property
    def laurent(self) -> LaurentPoly:
        return LaurentPoly._over({e[:1]: c for e, c in self._num.items() if not e[1]}, self._den)

    @property
    def log_coeff(self) -> Fraction:
        return self.coeff((0, 1))


def _form(x: LaurentPoly) -> tuple:
    """(den, terms): ``x``'s one denominator and, per term by ascending exponent, its nonzero
    (variable, exponent) pairs and its exact integer numerator."""
    return x._den, tuple((tuple((i, k) for i, k in enumerate(e) if k), c)
                         for e, c in sorted(x._num.items()))


def _dyadic(x: tuple) -> tuple[int, int]:
    """The finite raw libmp value ``x`` as (man, exp), its exact value man * 2^exp."""
    sign, man, exp, _ = x
    if not man and exp:
        raise ValueError(f"not a finite number: {mp.make_mpf(x)}")
    return -man if sign else man, exp


def _climb(ladder: dict[int, tuple[int, int]], x: tuple, k: int, wide: int) -> tuple[int, int]:
    """Extend ``ladder``, {j: x^j as (man, exp)} for the raw value x, from its top rung to k, and
    return x^k: x^1 is exact, x^-1 is one integer division, and each further power is the one
    before it times x^1 or x^-1, truncated to ``wide`` bits."""
    step = 1 if k > 0 else -1
    if step not in ladder:
        man, exp = _dyadic(x)
        shift = wide + man.bit_length()
        ladder[step] = (man, exp) if step > 0 else ((1 << shift) // man, -shift - exp)
    top = k
    while top not in ladder:  # the rungs run unbroken from x^step, so this finds the top
        top -= step
    (u_man, u_exp), (man, exp) = ladder[step], ladder[top]
    for j in range(top + step, k + step, step):
        man, exp = man * u_man, exp + u_exp
        drop = max(man.bit_length() - wide, 0)
        man, exp = ladder[j] = man >> drop, exp + drop
    return man, exp


def evaluate(prec: int, *point) -> Callable[[tuple], tuple]:
    """The evaluator at ``point``, one raw libmp value per coordinate: a function that returns the
    raw value at P = ``prec`` bits of each form (:func:`_form`) it is given, on power ladders
    shared by every form it is asked for.  Each coordinate's powers come from one ladder
    (:func:`_climb`) at wide = P + 40 bits: x^-1 lies within 2^-wide of its value, relative, and
    each rung adds a truncation of at most 2^(1-wide), so x^k lies within 1.5|k| 2^(1-wide) for any
    |k| < 2^64, whatever order the rungs are asked for in.  Each term is its exact numerator times
    its powers, truncated to one shared exponent P + 64 bits below the largest term, and their
    exact sum over the form's denominator is rounded once to P bits (:func:`_quotient`).  So for
    up to 2^30 terms, K being the largest sum of |k| in one term, v lies within |v| 2^-P + (1.5K
    2^(1-wide) + 2^-(P+32)) sum |c x^e| of the exact value, c the form's exact coefficients; for K
    <= 255 that is |v| 2^-P + 2^-(P+30) sum |c x^e|.  Exact terms with no bit below the shared
    exponent that cancel give exact zero."""
    wide, ladders = prec + 40, [{} for _ in point]

    def value(form: tuple) -> tuple:
        den, terms, top = form[0], [], None
        for keys, man in form[1]:
            exp = 0
            for i, k in keys:
                p_man, p_exp = ladders[i].get(k) or _climb(ladders[i], point[i], k, wide)
                man, exp = man * p_man, exp + p_exp
            terms.append((man, exp))
            if man and (top is None or exp + man.bit_length() > top):
                top = exp + man.bit_length()
        base = (0 if top is None else top) - prec - 64
        total = sum(m << (e - base) if e >= base else m >> (base - e) for m, e in terms)
        return _quotient(total, den, prec, base)

    return value


def integrate_tail(f: LaurentPoly) -> LaurentPoly:
    """Exact ``integral_x^inf f(s) ds`` as a Laurent polynomial in x.

    Term rule: s**(-k) integrates to x**(-(k-1)) / (k-1).  Every exponent of
    ``f`` must be <= -2, otherwise the tail diverges.
    """
    if bad := sorted(e for (e,) in f._num if e >= -1):
        raise NonIntegrableTailError(f"exponents {bad} make the tail integral diverge")
    scale = lcm(*(-e - 1 for (e,) in f._num))
    return LaurentPoly._over({(e + 1,): c * (scale // (-e - 1)) for (e,), c in f._num.items()},
                             f._den * scale)


def integrate_to_one(f: LaurentPoly) -> LogLaurent:
    """Exact ``integral_q^1 f(s) ds`` as a LaurentPoly over (q, L), L standing for log q.

    Exponent -1 contributes ``-L``; exponent e != -1 contributes
    ``(1 - q**(e+1)) / (e+1)``, split into a constant and a power of q.  The sum runs on
    f's numerators over its denominator times the lcm of the nonzero e + 1.
    """
    scale = lcm(*(e + 1 for (e,) in f._num if e != -1))
    out = {(0, 0): 0}
    for (e,), c in f._num.items():
        if e == -1:
            out[0, 1] = -c * scale
        else:
            c *= scale // (e + 1)
            out[0, 0] += c
            out[e + 1, 0] = -c
    return LogLaurent._over(out, f._den * scale)
