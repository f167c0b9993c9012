"""Independent brute-force oracles.

Everything the certified bounds target is recomputed here by direct
summation at high precision: Shannon entropy of the Poisson and binomial
laws, their relative entropy, the expected-log quantities the proofs run
through, and the central moments of both laws.  This module imports only
:mod:`symbolic`, and nothing on the bounds path (moments, coefficients,
bounds) imports it, so a bound and its oracle share only the exact kernel.
That kernel holds the one fixed-point ladder of log i!, which the exact
D(n, p) also reads; a test pins it against ``mpmath.log`` at twice the
precision.  Each oracle call reads it through one reader
(:func:`symbolic._log_factorial_reader`), which gives the exponent of its
unit, holds one rung and moves up a rung only when the walk passes its end.

Both laws are summed by one fixed-point core, :func:`_outward`, which
takes the caller's mpmath context and returns its mpfs.  It seeds the term
at the mode from the ladder and one exp, then walks each side in one flat
loop of Python integer arithmetic by the exact ratio of successive pmf
values, and stops the side at its own certified geometric tail or at the
end of the support.  A Poisson sum thus costs about sqrt(lam * bits)
terms, not lam, and a binomial one about sqrt(npq * bits), not n + 1.  The
oracles hand it exact (mantissa, exponent) weights from the ladder, of five
families that meet its tail's requirement by a proof in its docstring.
The central moments of both laws are exact rational sums, the Poisson ones
through Touchard's raw moments.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple

from mpmath import mp, mpf
from mpmath.libmp import (
    fzero,
    from_int,
    from_man_exp,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_shift,
    round_nearest,
    round_up,
    to_rational,
)

from .symbolic import (
    DEFAULT_CONTEXT,
    DomainError,
    PrecisionContext,
    _check_index,
    _check_positive,
    _log_factorial_reader,
    _mp_context,
    _point,
    _quotient,
    _round64,
    as_fraction,
)

# the pmf walk carries this many bits past the working precision
_GUARD = 32
_Dyadic = tuple[int, int]  # (man, exp): the exact value man * 2^exp


class TruncationReceipt(NamedTuple):
    """Evidence that a truncated series met the working precision.

    ``terms_used`` counts the summed terms: the mode and both sides of it.
    ``tail_bound`` bounds the left-out terms, the geometric tails of both
    sides added (a side that reaches the end of the support leaves none).
    ``rel_err_bound`` is the tail bound divided by the returned value, rounded up.
    """

    terms_used: int
    tail_bound: mpf
    rel_err_bound: mpf


class _Law(NamedTuple):
    """A law as :func:`_outward` walks it, from ``mode`` to 0 and to ``last``: pmf(j + d) /
    pmf(j) is exactly (A + B j) / (C + D j), (A, B, C, D) = ``down`` for d = -1, ``up`` for 1."""

    mode: int
    last: int | None  # the last index of the support; None for an infinite one
    mean: Fraction
    down: tuple[int, int, int, int]
    up: tuple[int, int, int, int]
    pmf: mpf  # pmf(mode), within 2^-(prec + 36) at the working precision prec


def _poisson_law(lam: mpf, prec: int, read: Callable[[int], int], unit: int) -> _Law:
    """Poisson(lam) for lam > 0, at working precision ``prec``, log mode! read by the caller's
    reader (read, unit) at ``prec``."""
    _, man, exp, _ = lam._mpf_
    num, den = (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
    mode = num // den
    # log pmf(mode) = mode log lam - lam - log mode!, within 2^-(prec + 40)
    H = _mp_context(_round64(prec + _GUARD + 8 + 2 * mode.bit_length()))
    pmf = H.exp(mode * H.log(lam) - lam - H.make_mpf(from_man_exp(read(mode), unit)))
    # pmf(j - 1) / pmf(j) = j / lam and pmf(j + 1) / pmf(j) = lam / (j + 1), lam = num / den
    return _Law(mode, None, Fraction(num, den), (0, den, num, 0), (num, 0, den, den), pmf)


def _binomial_law(n: int, p: mpf, prec: int, read: Callable[[int], int], unit: int) -> _Law:
    """Binomial(n, p) for 0 < p < 1, at working precision ``prec``, its log factorials read by
    the caller's reader (read, unit) at ``prec``."""
    _, a, exp, _ = p._mpf_
    E = -exp
    b = (1 << E) - a  # p = a / 2^E and q = b / 2^E exactly
    mode = (n + 1) * a >> E
    H = _mp_context(_round64(prec + _GUARD + 8 + 2 * n.bit_length() + E.bit_length()))
    q = H.make_mpf(from_man_exp(b, exp))
    pmf = H.exp(
        H.make_mpf(from_man_exp(read(n) - read(mode) - read(n - mode), unit))
        + mode * H.log(p)
        + (n - mode) * H.log(q)
    )
    # pmf(k - 1) / pmf(k) = k b / ((n - k + 1) a) and pmf(k + 1) / pmf(k) = (n - k) a / ((k + 1) b)
    return _Law(mode, n, Fraction(n * a, 1 << E), (0, b, (n + 1) * a, -a), (n * a, -a, b, b), pmf)


def _tail(first: _Dyadic, second: _Dyadic, mass: int, unit: int, t: int):
    """Bound on the terms from ``first`` on, as an mpf tuple, or None unless
    it is at most 2^-t of ``mass`` (an integer in units of 2^``unit``).

    With ratios that never rise, the terms from ``first`` on add up to at
    most |first| / (1 - |second / first|); two zero terms give a zero tail,
    and a zero ``first`` gives no ratio.
    """
    (pa, ea), (pb, eb) = first, second
    if not pa:
        return None if pb else fzero
    a, s = abs(pa), eb - ea
    b = abs(pb) << s if s >= 0 else -(-abs(pb) >> -s)  # |second| / 2^ea, rounded up
    if b >= a:
        return None
    c, k = a - b, ea - unit + t
    # the bound a^2 / c exceeds 2^(2 bl(a) - 2 - bl(c)) and 2^-k mass is below 2^(bl(mass) - k)
    if 2 * a.bit_length() - 2 - c.bit_length() + k >= mass.bit_length():
        return None
    lhs, rhs = a * a, c * mass
    if (lhs << k > rhs) if k >= 0 else (lhs > rhs << -k):
        return None
    return mpf_shift(mpf_div(from_int(lhs), from_int(c), 64, round_up), ea)


def _outward(law: _Law, weight: Callable[[int], _Dyadic], M) -> tuple[mpf, int, mpf, mpf]:
    """(sum, terms summed, tail bound, summed absolute terms) of
    sum_j pmf(j) w_j, as mpfs of the mpmath context ``M`` but for the count:
    the sum rounded to nearest and the bounds up, at ``prec`` = ``M.prec``.

    ``weight(j)`` gives w_j exactly, as a :data:`_Dyadic`, read once per j:
    the mode, then down from it, then up.  A side stops at the first term J
    beyond the mean whose tail |t_J| / (1 - |t_(J+d) / t_J|) is at most
    2^-(``prec`` + 3) of the absolute terms summed so far, or at the end of
    the support; both sides together leave out at most 2^-(``prec`` + 2) of
    them.  Requirement: no term ratio |t_(j+d) / t_j| beyond J exceeds the
    one at J.  For the five families the oracles pass, each stored as at
    most three ladder entries (log j!, log(j + 1), log C(n, k),
    log(n!/(n - k)!) and log(k + 1)), it holds by this proof.
    - Each exact family is log-concave: four are concave and nonnegative, and
      L = log j! has L (log(j + 1) - log j) <= log j <= log j log(j + 1) for
      j >= 2.  Its zeros lie only at the ends of the support and at j = 1,
      its other values are at least log 2, so beyond a nonzero t_J the exact
      weight ratio is at most the one at J until the side meets zeros.
    - A ladder entry is within 2^-(prec + 41), so a stored weight is within
      2^-(prec + 39), a factor 1 +- 2^-(prec + 38), of its value, and an
      exact 0 where that is 0: a stored weight ratio beyond J exceeds the
      one at J by a factor below 1 + 2^-(prec + 35).
    - The exact pmf ratio at any j beyond J is at most 1 - 1/(J + 2) times
      the one at J ((J + 1) / (j + 1) up, j / J down), and for the binomial
      at most 1 - 1/(n - J + 2) times.  That outweighs the rounding at every
      stop J with J, or n - J, below 2^(prec + 34).  No other stop can be
      reached: within the 2^27 terms of the error bound below, around a mode
      that far out, the pmf and the weight move by under a factor 2 each.

    Each side is one flat loop of integer arithmetic and one ``weight(j)`` call
    per term, the pmf ratio's integers moving by one addition each.  It keeps
    pmf(j) / pmf(mode) as r 2^x, multiplying r by the exact pmf ratio and
    flooring it to at least P = ``prec`` + 32 bits: each step costs at most
    2^-(P - 1), relative, and r stays below 2^P as the ratio is at most 1.  It
    asks :func:`_tail` only at a zero t_J = man 2^e_J or where bl(man) + e_J -
    unit + t - 2 < bl(mass), t = ``prec`` + 3 and mass the summed absolute
    terms in units of 2^unit, as _tail's own first test refuses every other
    stop.  The terms are summed as integers in units of at most 2^-(prec + 31)
    times the first nonzero term, so a sum of tiny terms keeps its precision.
    A priori error bound, relative to the summed absolute terms, for s terms:
    the pmf ratios carry at most s 2^-(prec + 31), flooring each term to a unit
    at most s 2^-(prec + 31) more, and the pmf at the mode less than
    2^-(prec + 36); in all less than 2^-(prec + 3) for any s below 2^27, and
    with both tails less than 2^-(prec + 1).
    """
    mode, last, mean, down, up, pmf = law
    prec, P, t = M.prec, M.prec + _GUARD, M.prec + 3
    w_mode, e_mode = weight(mode)
    unit, total, mass, terms, tail = None, 0, 0, 1, fzero
    if w_mode:
        unit = e_mode + w_mode.bit_length() - P
        total = w_mode << (e_mode - unit) if e_mode >= unit else w_mode >> (unit - e_mode)
        mass = abs(total)
    for d, end, (A, B, C, D) in ((-1, 0, down), (1, last, up)):
        # the term at j - d lies beyond the mean on this side when d * j > edge
        edge = 1 - math.ceil(mean) if d < 0 else math.floor(mean) + 1
        # the pmf ratio num / den from j to j + d, and its moves as j moves by d
        num, den, B, D = A + B * mode, C + D * mode, B * d, D * d
        # the term at j - d adds v to the mass held before it
        r, x, j, pm, pe = 1 << P, -P, mode, None, None
        while j != end:
            q = r * num
            k = P + den.bit_length() - q.bit_length()
            if k > 0:
                q <<= k
                x -= k
            r = q // den
            j, num, den = j + d, num + B, den + D
            w, e = weight(j)
            tm, te = r * w, x + e
            if unit is None and tm:
                unit = te + tm.bit_length() - P
            # t_(j-d) and t_j are the first left out if the side stops here
            if pm is not None and d * j > edge and not (
                pm and pm.bit_length() + pe - unit + t - 2 >= held.bit_length()
            ):
                bound = _tail((pm, pe), (tm, te), held, unit, t)
                if bound is not None:
                    tail = mpf_add(tail, bound, P, round_up)
                    total, mass, terms = total - v, held, terms - 1
                    break
            v = (tm << (te - unit) if te >= unit else tm >> (unit - te)) if tm else 0
            total, held, mass, terms = total + v, mass, mass + abs(v), terms + 1
            pm, pe = tm, te
    scale = pmf._mpf_
    value = mpf_mul(from_man_exp(total, unit or 0), scale, prec, round_nearest)
    mass = mpf_mul(from_man_exp(mass, unit or 0), scale, prec, round_up)
    tail = mpf_mul(tail, scale, prec, round_up)
    return M.make_mpf(value), terms, M.make_mpf(tail), M.make_mpf(mass)


def poisson_entropy_oracle(
    lam, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> tuple[mpf, TruncationReceipt]:
    """H(lam) = lam - lam log lam + sum_j pmf(j) log j!, with H(0) = 0.

    log j! is read from the fixed-point log-factorial table, so no large
    factorial is ever formed.  The series is about lam log lam while H is
    about log(2 pi e lam) / 2, so the sum cancels; it is therefore summed
    64 bits above the working precision ``ctx.bits`` + 64 and rounded to it,
    and H is formed there and rounded once.
    """
    M = ctx.mp
    lam_m = M.make_mpf(_point(lam, M, "lam", ">= 0"))
    if lam_m == 0:
        return mpf(0), TruncationReceipt(0, mpf(0), mpf(0))
    W = _mp_context(M.prec + 64)
    log_fact, exp = _log_factorial_reader(W.prec)
    law = _poisson_law(lam_m, W.prec, log_fact, exp)
    series, terms, tail, mass = _outward(law, lambda j: (log_fact(j), exp), W)
    value = ctx.round(lam_m - lam_m * M.log(lam_m) + M.mpf(series))
    # entropy is strictly positive for lam > 0, so this is a true rel err
    rel = mpf_div(tail._mpf_, (value if value > 0 else mass)._mpf_, ctx.bits, round_up)
    return value, TruncationReceipt(terms, mp.make_mpf(tail._mpf_), mp.make_mpf(rel))


def expected_log_poisson(s, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """E[log(N_s + 1)] by certified series, log(j + 1) read from the
    log-factorial table."""
    M = ctx.mp
    s_m = M.make_mpf(_point(s, M, "s", "> 0"))
    log_fact, exp = _log_factorial_reader(M.prec)
    law = _poisson_law(s_m, M.prec, log_fact, exp)
    return ctx.round(_outward(law, lambda j: (log_fact(j + 1) - log_fact(j), exp), M)[0])


def moment_oracle_poisson(k: int, s, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """E[(N_s - s)^k] = sum_i C(k, i) (-s)^(k-i) E[N_s^i] as an exact rational sum at the
    point s as read into ``ctx.mp``, rounded once to ``ctx.bits``.  The raw moments are
    Touchard's E[N_s^i] = sum_j S(i, j) s^j, S the Stirling numbers of the second kind, so
    the sum is independent of the moment polynomials."""
    _check_index(k, "moment order", 0)
    s = Fraction(*to_rational(_point(s, ctx.mp, "s", "> 0")))
    raw, row = [], [1]  # row[j] = S(i, j) as the i-th raw moment is summed
    for _ in range(k + 1):
        raw.append(sum(c * s**j for j, c in enumerate(row)))
        row = [j * a + b for j, (a, b) in enumerate(zip(row + [0], [0] + row))]
    value = sum(math.comb(k, i) * (-s) ** (k - i) * m for i, m in enumerate(raw))
    return mp.make_mpf(_quotient(value.numerator, value.denominator, ctx.bits))


def binomial_entropy_oracle(n: int, p, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """H(B_{n,p}) = -sum_k P(k) log P(k) (0 log 0 = 0), summed as
    n h(p) - E[log C(n, K)], h the binary entropy in nats."""
    _check_positive(n, "n", DomainError)
    M = ctx.mp
    p_m = M.make_mpf(_point(p, M, "p", "in [0,1]"))
    if p_m == 0 or p_m == 1:
        return mpf(0)
    log_fact, exp = _log_factorial_reader(M.prec)
    log_n = log_fact(n)
    law = _binomial_law(n, p_m, M.prec, log_fact, exp)
    series = _outward(law, lambda k: (log_n - log_fact(k) - log_fact(n - k), exp), M)[0]
    q_m = M.fsub(1, p_m, exact=True)
    return ctx.round(-n * (p_m * M.log(p_m) + q_m * M.log(q_m)) - series)


def relative_entropy_oracle(n: int, p, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """D(B_{n,p} || Poisson(np)) by direct summation.

    Uses n(p + q log q) - np log n + sum_k P(k) log(n! / (n-k)!), the
    falling-factorial logs read from the log-factorial table.  The sum and
    np log n are each at most 6n log n / p times D, as D >= p^2/6, so they
    cancel under c = bl(6n bl(n)) + 1 - mag p bits; they are formed with at
    least 32 of the working precision's guard bits to spare, c - 32 bits
    higher where c exceeds 32.  The head n(p + q log q), with q exact,
    cancels under log2(4/p) bits and is formed that many bits higher still.
    """
    _check_positive(n, "n", DomainError)
    M = ctx.mp
    p_m = M.make_mpf(_point(p, M, "p", "in [0,1]"))
    if p_m == 0:
        return mpf(0)
    if p_m == 1:
        # mass concentrated at k = n
        return ctx.round(n - n * M.log(n) + M.loggamma(n + 1))
    lost = (6 * n * n.bit_length()).bit_length() + 1 - M.mag(p_m)
    W = _mp_context(_round64(M.prec + max(0, lost - 32)))
    H = _mp_context(_round64(W.prec + 2 - M.mag(p_m)))
    q = H.fsub(1, p_m, exact=True)
    base = W.fsub(n * H.fadd(p_m, q * H.log(q)), W.fmul(n, p_m, exact=True) * W.log(n))
    log_fact, exp = _log_factorial_reader(W.prec)
    log_n = log_fact(n)
    law = _binomial_law(n, p_m, W.prec, log_fact, exp)
    series = _outward(law, lambda k: (log_n - log_fact(n - k), exp), W)[0]
    return ctx.round(W.fadd(base, series))


def expected_log_binomial(n: int, s, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpf:
    """E[log((B_{n-1,s} + 1) / (n s))], summed as E[log(B_{n-1,s} + 1)] - log(n s).

    It is E[Y log Y] for Y = B_{n,s} / (n s) (size bias), at least E[(Y - 1)^2] s / 2 =
    q / (2n) as Y <= 1 / s, q = 1 - s.  Both terms lie below log n < bl(n) where their signs
    differ, so they cancel under c = bl(2n bl(n)) + 1 - mag q bits, and the difference is
    formed c - 32 bits higher where c exceeds 32 of the working precision's guard bits.
    """
    _check_positive(n, "n", DomainError)
    M = ctx.mp
    s_m = M.make_mpf(_point(s, M, "s", "in (0,1)"))
    lost = (2 * n * n.bit_length()).bit_length() + 1 - M.mag(M.fsub(1, s_m, exact=True))
    W = M if lost <= 32 else _mp_context(_round64(M.prec + lost - 32))
    log_fact, exp = _log_factorial_reader(W.prec)
    law = _binomial_law(n - 1, s_m, W.prec, log_fact, exp)
    series = _outward(law, lambda k: (log_fact(k + 1) - log_fact(k), exp), W)[0]
    return ctx.round(W.fsub(series, W.log(W.fmul(n, s_m))))


def moment_oracle_binomial(k: int, n: int, s) -> Fraction:
    """E[(B_{n,s} - ns)^k] as an exact rational finite sum."""
    _check_index(k, "moment order", 0)
    _check_positive(n, "n", DomainError)
    s = as_fraction(s)
    if not 0 < s < 1:
        raise DomainError(f"s must be in (0,1), got {s}")
    q = 1 - s
    mean = n * s
    return sum(
        (math.comb(n, j) * s**j * q ** (n - j) * (j - mean) ** k for j in range(n + 1)),
        Fraction(0),
    )
