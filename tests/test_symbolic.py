"""Kernel tests: exact arithmetic, the two integration rules, evaluation, the log ladder."""

import math
import random
import time
from fractions import Fraction as F
from math import prod

import mpmath
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from entropy_bounds import (
    DEFAULT_CONTEXT,
    BoundReport,
    LaurentPoly,
    NonIntegrableTailError,
    PrecisionContext,
    integrate_tail,
    integrate_to_one,
    rational_str,
)
from entropy_bounds.symbolic import (
    _TABLE_BITS,
    _TABLE_CAP,
    _climb,
    _dyadic,
    _form,
    _raw,
    _log_factorials,
    _mp_context,
    evaluate,
    to_mpf,
)
from golden_data import loglaurent

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997
)


class TestRationals:
    def test_canonical_string(self):
        assert rational_str(F(1, 6)) == "1/6"
        assert rational_str(F(-2, 24)) == "-1/12"
        assert rational_str(3) == "3/1"

    @given(rationals)
    def test_roundtrip(self, x):
        assert F(rational_str(x)) == x

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            rational_str(0.5)


nonzero_rationals = st.fractions(min_value=-10, max_value=10, max_denominator=50).filter(bool)
two_variable_terms = st.dictionaries(
    st.tuples(st.integers(-3, 4), st.integers(-3, 4)), rationals, max_size=5
)


def direct_eval(terms, point):
    """sum c * prod(x_i ** e_i), straight from a {exponent tuple: c} dict."""
    return sum((F(c) * prod(x**e for x, e in zip(point, exps)) for exps, c in terms.items()), F(0))


class TestLaurentPoly:
    def test_zero_coefficients_dropped(self):
        f = LaurentPoly({-2: F(1), 3: F(0)})
        assert f.terms() == ((-2, F(1)),)

    def test_zero_polynomial(self):
        assert LaurentPoly().is_zero and LaurentPoly().terms() == ()
        assert LaurentPoly({0: 0, 1: 0}).is_zero
        assert LaurentPoly({(0, 0): 0}) == LaurentPoly()
        assert LaurentPoly()(F(1, 2)) == 0

    def test_equality_is_structural(self):
        f = LaurentPoly({0: 1, 1: 2, 2: 0})
        g = LaurentPoly([(1, 2), (0, 1), (3, 5), (3, -5)])
        assert f == g and hash(f) == hash(g)
        assert f.terms() == ((0, F(1)), (1, F(2)))
        assert f.coeff(1) == 2 and f.coeff(7) == 0

    def test_immutable(self):
        f = LaurentPoly({1: 1})
        for name in ("_num", "_den", "other"):
            with pytest.raises(AttributeError, match="LaurentPoly is immutable"):
                setattr(f, name, {})
        assert f == LaurentPoly({1: 1})

    def test_repr(self):
        # terms in ascending exponent order, each coefficient as num/den
        assert repr(LaurentPoly()) == "LaurentPoly(0)"
        assert (repr(LaurentPoly({(1, 0): F(1, 3), (0, 2): -1}))
                == "LaurentPoly(-1/1*x^(0, 2) + 1/3*x^(1, 0))")

    def test_eval_exact_nonnegative_exponents(self):
        # 3s^2 + s at s = 1 and s = 1/2
        assert LaurentPoly({1: 1, 2: 3})(1) == 4
        assert LaurentPoly({1: 1, 2: 3})(F(1, 2)) == F(5, 4)

    def test_eval_exact(self):
        f = LaurentPoly({-1: 1})
        assert f(F(1, 2)) == 2
        with pytest.raises(ZeroDivisionError):
            f(0)

    @pytest.mark.parametrize(
        "terms,point,tol_bits",
        [
            ({0: F(1, 3), 1: -2, 2: F(7, 5)}, (F(3, 4),), 120),
            ({-3: F(2, 9), 0: 1, 4: F(-5, 3)}, (F(3, 4),), 120),
            # 1 + 2n + 3 n^2 s
            ({(0, 0): 1, (1, 0): 2, (2, 1): 3}, (3, F(2, 7)), 115),
        ],
        ids=["one-variable", "negative-exponents", "two-variable"],
    )
    def test_eval_mpf_matches_exact(self, terms, point, tol_bits):
        p = LaurentPoly(terms)
        with mp.workprec(128):
            exact = p(*point)
            approx = p(*(mpf(x.numerator) / x.denominator for x in map(F, point)))
            assert abs(approx - mpf(exact.numerator) / exact.denominator) < mpf(2) ** -tol_bits

    def test_arithmetic(self):
        p, q = LaurentPoly({0: 1, 1: 1}), LaurentPoly({1: 2})
        assert p * q == LaurentPoly({1: 2, 2: 2})
        assert p + q == LaurentPoly({0: 1, 1: 3})
        assert p - q == LaurentPoly({0: 1, 1: -1})
        assert (p - p).is_zero
        assert 3 * p == LaurentPoly({0: 3, 1: 3}) == p * 3
        assert -p == LaurentPoly({0: -1, 1: -1})
        # only a LaurentPoly adds to one, and only a LaurentPoly or an exact scalar multiplies one
        for other in (1, F(1, 2), 0.5, "1/2"):
            with pytest.raises(TypeError):
                p + other
            with pytest.raises(TypeError):
                p - other
            with pytest.raises(TypeError):
                other + p
        for other in (0.5, "1/2", mpf(2)):
            with pytest.raises(TypeError):
                p * other

    def test_mul(self):
        f = LaurentPoly({-1: 2, 1: 1})
        assert f * f == LaurentPoly({-2: 4, 0: 4, 2: 1})

    def test_derivative_and_shift(self):
        assert LaurentPoly({0: 5, 2: 3}).derivative(0) == LaurentPoly({1: 6})
        assert LaurentPoly({-2: 1, 0: 7}).derivative(0) == LaurentPoly({-3: -2})
        assert LaurentPoly({0: 1, 1: 2}).shifted(2) == LaurentPoly({2: 1, 3: 2})
        assert LaurentPoly({0: 1, 1: 2}).shifted(-3) == LaurentPoly({-3: 1, -2: 2})

    def test_scale_and_shift(self):
        # (1/3) x^-4 (x + 3x^2), the form of a moment over a power of its mean
        f = F(1, 3) * LaurentPoly({1: 1, 2: 3}).shifted(-4)
        assert f == LaurentPoly({-3: F(1, 3), -2: 1})

    def test_two_variable_construction_and_eval(self):
        # n * s * (1 - s)
        poly = LaurentPoly({(1, 1): 1, (1, 2): -1})
        assert poly(4, F(1, 2)) == 1
        assert poly.terms() == (((1, 1), F(1)), ((1, 2), F(-1)))
        assert poly.coeff((1, 2)) == -1

    def test_two_variable_shift_and_derivative(self):
        s = LaurentPoly({(0, 1): 1})
        n_s = s.shifted((1, 0))
        assert n_s == LaurentPoly({(1, 1): 1})
        assert (n_s * n_s)(3, F(1, 2)) == F(9, 4)
        assert n_s.derivative(1)(7, F(1, 3)) == 7
        assert n_s.derivative(0) == s
        f = LaurentPoly({(-1, 2): 4, (3, -2): F(1, 2), (0, 5): 1})
        assert f.shifted((2, -1)) == LaurentPoly({(1, 1): 4, (5, -3): F(1, 2), (2, 4): 1})
        assert f.derivative(0) == LaurentPoly({(-2, 2): -4, (2, -2): F(3, 2)})
        assert f.derivative(1) == LaurentPoly({(-1, 1): 8, (3, -3): -1, (0, 4): 5})

    def test_variable_counts_must_agree(self):
        with pytest.raises(ValueError):
            LaurentPoly({0: 1, (1, 1): 1})
        with pytest.raises(ValueError):
            LaurentPoly({0: 1}) + LaurentPoly({(1, 1): 1})
        with pytest.raises(ValueError):
            LaurentPoly({1: 1}) * LaurentPoly({(1, 1): 1})
        with pytest.raises(TypeError):
            LaurentPoly({(1, 1): 1})(2)

    @pytest.mark.parametrize("make, bad", [
        (lambda: LaurentPoly({1.5: 1}), "1.5"),
        (lambda: LaurentPoly({"2": 1}), "'2'"),
        (lambda: LaurentPoly({1: 3}).coeff(1.9), "1.9"),
        (lambda: LaurentPoly({1: 3}).shifted(0.7), "0.7"),
    ], ids=["init-float", "init-str", "coeff", "shifted"])
    def test_exponent_must_be_an_integer(self, make, bad):
        # no exponent is truncated or parsed into an int
        with pytest.raises(ValueError, match=f"^exponent must be an integer, got {bad}$"):
            make()

    @given(two_variable_terms, two_variable_terms, nonzero_rationals, nonzero_rationals)
    def test_two_variable_algebra_matches_evaluation(self, f_terms, g_terms, n, s):
        f, g = LaurentPoly(f_terms), LaurentPoly(g_terms)
        point = (n, s)
        assert f(*point) == direct_eval(f_terms, point)
        assert (f + g)(*point) == f(*point) + g(*point)
        assert (f - g)(*point) == f(*point) - g(*point)
        assert (f * g)(*point) == f(*point) * g(*point)
        # sums over different denominators reduce to one canonical form
        assert (f + g) - g == f and hash((f + g) - g) == hash(f)
        for var in (0, 1):
            by_hand = {
                tuple(e - (i == var) for i, e in enumerate(exps)): c * exps[var]
                for exps, c in f_terms.items()
            }
            assert f.derivative(var)(*point) == direct_eval(by_hand, point)



def exact_value(x: mpf) -> F:
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * F(man) * F(2) ** exp


# dyadic coordinates from 2^-36 to 2^36, so below and above 1, exact at 64 bits
dyadics = st.builds(lambda man, shift: F(man) / F(2) ** shift, st.integers(1, 2**16 - 1), st.integers(-20, 36))


@st.composite
def forms_and_points(draw, exponent_pairs=False):
    """(terms, point): 1-3 coordinates with exponents in [-13, 13].  With
    ``exponent_pairs`` the point is powers of two and the terms come in pairs
    t - t, each t = c x^e a dyadic of 20 bits, so that they cancel exactly."""
    k = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(-13, 13)] * k)
    if not exponent_pairs:
        point = draw(st.tuples(*[dyadics] * k))
        return draw(st.dictionaries(exponents, rationals.filter(bool), min_size=1, max_size=12)), point
    point = draw(st.tuples(*[st.integers(-20, 20).map(lambda s: F(2) ** s)] * k))
    es = draw(st.lists(exponents, min_size=2, max_size=12, unique=True))
    terms = {}
    for e, e2 in zip(es[::2], es[1::2]):
        t = F(draw(st.integers(-2**20, 2**20).filter(bool)), 2 ** draw(st.integers(0, 30)))
        terms[e], terms[e2] = (sign * t / prod(x**a for x, a in zip(point, f)) for sign, f in ((1, e), (-1, e2)))
    return terms, point


@st.composite
def ladder_forms_and_points(draw, prec, coords=(1, 3), reach=40):
    """(terms, point) for a ``prec``-bit context: ``coords`` (least, most) signed coordinates
    with mantissas of up to ``prec`` bits, from 2^-300 to 2^300, and terms in pairs
    c x^e - c x^e2 with exponents in [-reach, reach].  The second coefficient of each pair
    rounds when it is compiled, so the pairs nearly cancel and the powers' errors are not
    hidden under |v| 2^-prec."""
    k = draw(st.integers(*coords))
    point = []
    for _ in range(k):
        width, top = draw(st.integers(1, prec)), draw(st.integers(-299, 300))
        man = draw(st.integers(2 ** (width - 1), 2**width - 1)) * draw(st.sampled_from((1, -1)))
        point.append(F(man) * F(2) ** (top - width))
    es = draw(st.lists(st.tuples(*[st.integers(-reach, reach)] * k), min_size=2, max_size=12, unique=True))
    terms = {}
    for e, e2 in zip(es[::2], es[1::2]):
        c = F(draw(st.integers(-2**prec + 1, 2**prec - 1).filter(bool))) * F(2) ** draw(st.integers(-30, 30))
        terms[e], terms[e2] = c, -c * prod(x ** (a - b) for x, a, b in zip(point, e, e2))
    return terms, tuple(point)


class TestEvaluate:
    """The integer evaluator against exact Fraction evaluation at dyadic points."""

    @pytest.mark.parametrize("bits", [64, 128, 320])
    @seed(2010)
    @given(forms_and_points())
    def test_within_the_stated_error_bound(self, bits, case):
        terms, point = case
        poly, M = LaurentPoly(terms), _mp_context(bits)
        got = poly(*(to_mpf(x, M) for x in point))
        assert got.context is M
        exact = poly(*point)
        mass = sum(abs(c * prod(x**e for x, e in zip(point, exps))) for exps, c in terms.items())
        v = exact_value(got)
        assert abs(v - exact) <= abs(v) / 2**bits + mass * 4 / 2**bits

    @pytest.mark.parametrize("bits", [64, 128, 320])
    @seed(2017)
    @given(st.data())
    def test_ladder_within_the_stated_error_bound(self, bits, data):
        # against the coefficients as compiled, the bound leaves 2^-(P+30) of the terms
        M = PrecisionContext(bits).mp
        terms, point = data.draw(ladder_forms_and_points(M.prec))
        form = _form(LaurentPoly(terms), M.prec)
        got = M.make_mpf(evaluate(M.prec, *(_raw(x, M) for x in point))(form))
        compiled = [F(man) * F(2) ** exp * prod(point[i] ** k for i, k in keys)
                    for keys, man, exp in form]
        v = exact_value(got)
        assert abs(v - sum(compiled)) <= abs(v) / 2**M.prec + sum(map(abs, compiled)) / 2 ** (M.prec + 30)

    @pytest.mark.parametrize("x", ["+inf", "-inf", "nan"])
    def test_dyadic_refuses_a_non_finite_number(self, x):
        with pytest.raises(ValueError, match="not a finite number"):
            _dyadic(mpf(x)._mpf_)

    @pytest.mark.parametrize("bits", [64, 128, 320])
    @seed(2019)
    @settings(max_examples=15)  # a pair's coefficients reach x^800 and take long to compile
    @given(st.data())
    def test_long_ladders_asked_out_of_order(self, bits, data):
        # one coordinate with |k| up to 400: each pair of terms is a form of its own, and the
        # forms and their terms come in a drawn order, so the ladder is asked for its rungs
        # out of order and resumes from its top rung
        M = PrecisionContext(bits).mp
        terms, (x,) = data.draw(ladder_forms_and_points(M.prec, coords=(1, 1), reach=400))
        pairs = list(zip(*[iter(terms.items())] * 2))
        forms = data.draw(st.permutations(
            [data.draw(st.permutations(_form(LaurentPoly(dict(pair)), M.prec))) for pair in pairs]))
        wide = M.prec + 40
        for form, got in zip(forms, map(evaluate(M.prec, _raw(x, M)), forms), strict=True):
            got = M.make_mpf(got)
            ks = [sum(k for _, k in keys) for keys, _, _ in form]
            compiled = [F(man) * F(2) ** exp * x**k for k, (_, man, exp) in zip(ks, form)]
            rel = F(3 * max(map(abs, ks)), 2) * F(2) ** (1 - wide) + F(1, 2 ** (M.prec + 32))
            v = exact_value(got)
            assert abs(v - sum(compiled)) <= abs(v) / 2**M.prec + rel * sum(map(abs, compiled))

    def test_ladder_builds_each_rung_once(self):
        # the rungs x^1..x^400 and x^-1..x^-400 asked for one by one cost O(800) dict
        # lookups, not O(800^2), and match the rungs of a ladder climbed in one go
        class Counting(dict):
            lookups = 0

            def __contains__(self, key):
                Counting.lookups += 1
                return dict.__contains__(self, key)

        M = PrecisionContext(64).mp
        x, wide = (M.mpf(-3) / 7)._mpf_, M.prec + 40
        ladder = Counting()
        for k in [*range(1, 401), *range(-1, -401, -1)]:
            _climb(ladder, x, k, wide)
        assert len(ladder) == 800 and Counting.lookups <= 4 * 800
        for k in (400, -400):
            assert _climb({}, x, k, wide) == ladder[k]

    @pytest.mark.parametrize("bits", [64, 128, 320])
    @seed(2010)
    @given(forms_and_points(exponent_pairs=True))
    def test_exact_cancellation_gives_exact_zero(self, bits, case):
        terms, point = case
        poly, M = LaurentPoly(terms), _mp_context(bits)
        assert poly(*point) == 0
        assert poly(*(to_mpf(x, M) for x in point))._mpf_ == M.zero._mpf_

class TestTailIntegration:
    def test_single_power(self):
        assert integrate_tail(LaurentPoly({-2: 1})) == LaurentPoly({-1: 1})

    def test_order_one_gap_integrand(self):
        # mu_4(s)/(3 s^4) = s^-2 + (1/3) s^-3 integrates to x^-1 + (1/6) x^-2
        f = LaurentPoly({-2: 1, -3: F(1, 3)})
        assert integrate_tail(f) == LaurentPoly({-1: 1, -2: F(1, 6)})

    @pytest.mark.parametrize("bad", [{-1: 1}, {0: 1}, {2: 1, -3: 1}])
    def test_divergent_tail_rejected(self, bad):
        with pytest.raises(NonIntegrableTailError):
            integrate_tail(LaurentPoly(bad))

    @given(
        st.dictionaries(st.integers(-6, -2), rationals, max_size=4),
        st.dictionaries(st.integers(-6, -2), rationals, max_size=4),
        rationals,
    )
    def test_linearity(self, f_terms, g_terms, alpha):
        f, g = LaurentPoly(f_terms), LaurentPoly(g_terms)
        lhs = integrate_tail(alpha * f + g)
        rhs = alpha * integrate_tail(f) + integrate_tail(g)
        assert lhs == rhs

    @pytest.mark.parametrize("x0", [F(1, 2), F(2), F(7, 3)])
    def test_matches_quadrature(self, x0):
        f = LaurentPoly({-2: F(3, 7), -4: -2, -5: F(1, 3)})
        symbolic = integrate_tail(f)(to_mpf(x0, _mp_context(128)))
        with mp.workprec(128):
            quad = mpmath.quad(lambda s: f(s), [mpf(x0.numerator) / x0.denominator, mpmath.inf])
            assert abs(symbolic - quad) < mpf(10) ** -20


class TestIntervalIntegration:
    def test_inverse_power_gives_log(self):
        out = integrate_to_one(LaurentPoly({-1: 1}))
        assert out.log_coeff == -1
        assert out.laurent.is_zero

    def test_constant(self):
        assert integrate_to_one(LaurentPoly({0: 1})) == loglaurent(0, {0: 1, 1: -1})

    @given(
        st.dictionaries(st.integers(-4, 3), rationals, max_size=4),
        st.dictionaries(st.integers(-4, 3), rationals, max_size=4),
        rationals,
    )
    def test_linearity(self, f_terms, g_terms, alpha):
        f, g = LaurentPoly(f_terms), LaurentPoly(g_terms)
        lhs = integrate_to_one(alpha * f + g)
        rhs = alpha * integrate_to_one(f) + integrate_to_one(g)
        assert lhs == rhs

    def test_second_moment_leading_term(self):
        # n mu_2(n,s) / (2 (ns)^2) = (1-s)/(2s); integrating over [q, 1]
        # gives -(p + log q)/2, the order-independent leading term
        f = LaurentPoly({-1: F(1, 2), 0: F(-1, 2)})
        got = integrate_to_one(f)
        assert got == loglaurent(F(-1, 2), {0: F(-1, 2), 1: F(1, 2)})

    @pytest.mark.parametrize("q0", [F(1, 10), F(1, 2), F(9, 10)])
    def test_matches_quadrature(self, q0):
        f = LaurentPoly({-3: F(2, 5), -1: -3, 0: 1, 2: F(1, 4)})
        M = PrecisionContext(bits=128).mp
        q = to_mpf(q0, M)
        symbolic = integrate_to_one(f)(q, M.log(q))
        with mp.workprec(128):
            quad = mpmath.quad(lambda s: f(s), [mpf(q0.numerator) / q0.denominator, 1])
            assert abs(symbolic - quad) < mpf(10) ** -20


class TestLogLaurent:
    def test_eval_examples(self):
        M = PrecisionContext(bits=128).mp
        half = M.mpf(1) / 2
        assert loglaurent(0, {-1: 1})(half, M.log(half)) == 2
        # 2 log q - q + 1/q at q = 1/2 -> 3/2 - 2 log 2
        got = loglaurent(2, {1: -1, -1: 1})(half, M.log(half))
        with mp.workprec(128):
            want = mpf(3) / 2 - 2 * mpmath.log(2)
            assert abs(got - want) < mpf(2) ** -120

    @given(
        st.dictionaries(st.integers(-3, 3), rationals, max_size=4),
        rationals,
    )
    def test_log_term_vanishes_at_one(self, terms, log_coeff):
        M = DEFAULT_CONTEXT.mp
        one = M.mpf(1)
        f, plain = loglaurent(log_coeff, terms), loglaurent(0, terms)
        assert f(one, M.log(one)) == plain(one, M.log(one))

    def test_scalar_algebra(self):
        f = loglaurent(2, {-1: 1})
        assert f - f == LaurentPoly()
        assert (F(1, 2) * f).coeff((0, 1)) == 1


class TestContextAndInterval:
    def test_interval_orientation(self):
        with pytest.raises(ValueError, match="^empty interval:"):
            BoundReport(mpf(1), mpf(0), mpf("0.5"), mpf(-1), 1, "test")
        box = BoundReport(mpf(0), mpf(1), mpf("0.5"), mpf(1), 1, "test")
        assert box.contains(mpf("0.5")) and not box.contains(2)

    def test_context_validation(self):
        with pytest.raises(ValueError):
            PrecisionContext(bits=32)
        with pytest.raises(TypeError, match="bits"):
            PrecisionContext(bits=100.5)
        with pytest.raises(TypeError, match="bits"):
            PrecisionContext(bits="128")

    def test_round_to_bits(self):
        ctx = PrecisionContext(bits=64)
        with mp.workprec(256):
            x = mpf(1) / 3
        y = ctx.round(x)
        with mp.workprec(64):
            assert y == mpf(1) / 3

    def test_default_context(self):
        assert DEFAULT_CONTEXT.bits == 256

    @pytest.mark.parametrize("bits", [64, 128, 320])
    def test_huge_fraction_is_rounded_once(self, bits):
        # numerators of 10^5 bits: rounding the numerator to the context first and then
        # dividing rounds twice, and misses the nearest mpf for some of these draws
        M = _mp_context(bits)
        rng = random.Random(bits)
        for _ in range(8):
            x = F(rng.getrandbits(10**5) | 1 << (10**5 - 1), rng.getrandbits(64) | 1)
            y = to_mpf(x, M)
            _, _, exp, bc = y._mpf_
            assert abs(exact_value(y) - x) <= F(2) ** (exp + bc - bits) / 2, x.denominator

    @pytest.mark.parametrize("bits", [64, 128, 384])
    def test_wide_int_matches_mpmath(self, bits):
        # an int wider than the context is rounded by integer shifts, bit for bit as mpmath
        # rounds it: random widths, exact ties (one bit past the precision, then zeros) and
        # runs of trailing zeros, of either sign
        M = _mp_context(bits)
        rng = random.Random(bits)
        for _ in range(300):
            x = rng.getrandbits(rng.randint(bits + 1, bits + 200)) | 1 << bits
            tie = ((rng.getrandbits(bits - 1) | 1 << (bits - 1)) << 1 | 1) << rng.randint(0, 99)
            for y in (x, tie, x >> 50 << 50):
                y = rng.choice((y, -y))
                assert to_mpf(y, M)._mpf_ == M.mpf(y)._mpf_, y

    def test_wide_int_is_fast(self):
        # an int of 10^5 bits is rounded by integer shifts, not through mpmath's strip of its
        # trailing zeros, which takes tens of ms per call: fifty calls stay well under 1 s
        M = _mp_context(128)
        start = time.perf_counter()
        for _ in range(50):
            value = to_mpf(2**100_000, M)
        assert time.perf_counter() - start < 1
        assert value._mpf_ == (0, 1, 100_000, 1)


class TestLogLadder:
    @pytest.mark.parametrize("prec, top", [(64, _TABLE_CAP), (256, 1 << 14), (1024, 1 << 12),
                                           (2048, 1 << 11)])
    def test_log_i_within_the_stated_bound(self, prec, top):
        # log i is entry i less entry i - 1, within 2 log2 i units of 2^-(prec + 64); exact D
        # and the oracles both read it, so it is pinned against mpmath.log on its own
        ladder = _log_factorials(top, prec)
        units = mpf(2) ** (prec + _TABLE_BITS)
        for i in random.Random(prec).sample(range(2, top), 40):
            with mp.workprec(2 * (prec + _TABLE_BITS)):
                assert abs(ladder[i] - ladder[i - 1] - mpmath.log(i) * units) <= 2 * math.log2(i)
