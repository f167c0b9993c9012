"""Kernel tests: exact arithmetic, the two integration rules, evaluation."""

from fractions import Fraction as F
from math import prod

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpf

from entropy_bounds import (
    DEFAULT_CONTEXT,
    DomainError,
    Interval,
    LaurentPoly,
    LogLaurent,
    NonIntegrableTailError,
    PrecisionContext,
    eval_at,
    integrate_tail,
    integrate_to_one,
    rational_str,
)

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

    @given(two_variable_terms, two_variable_terms, nonzero_rationals, nonzero_rationals)
    def test_two_variable_algebra_matches_evaluation(self, f_terms, g_terms, n, s):
        f, g = LaurentPoly(f_terms), LaurentPoly(g_terms)
        point = (n, s)
        assert f(*point) == direct_eval(f_terms, point)
        assert (f + g)(*point) == f(*point) + g(*point)
        assert (f - g)(*point) == f(*point) - g(*point)
        assert (f * g)(*point) == f(*point) * g(*point)
        for var in (0, 1):
            by_hand = {
                tuple(e - (i == var) for i, e in enumerate(exps)): c * exps[var]
                for exps, c in f_terms.items()
            }
            assert f.derivative(var)(*point) == direct_eval(by_hand, point)


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
        symbolic = eval_at(integrate_tail(f), x0, PrecisionContext(bits=128))
        with mp.workprec(128):
            quad = mpmath.quad(lambda s: f(s), [mpf(x0.numerator) / x0.denominator, mpmath.inf])
            assert abs(symbolic - quad) < mpf(10) ** -20


class TestIntervalIntegration:
    def test_inverse_power_gives_log(self):
        out = integrate_to_one(LaurentPoly({-1: 1}))
        assert out.log_coeff == -1
        assert out.laurent.is_zero

    def test_constant(self):
        assert integrate_to_one(LaurentPoly({0: 1})) == LogLaurent(LaurentPoly({0: 1, 1: -1}))

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
        assert got == LogLaurent(LaurentPoly({0: F(-1, 2), 1: F(1, 2)}), F(-1, 2))

    @pytest.mark.parametrize("q0", [F(1, 10), F(1, 2), F(9, 10)])
    def test_matches_quadrature(self, q0):
        f = LaurentPoly({-3: F(2, 5), -1: -3, 0: 1, 2: F(1, 4)})
        symbolic = eval_at(integrate_to_one(f), q0, PrecisionContext(bits=128))
        with mp.workprec(128):
            quad = mpmath.quad(lambda s: f(s), [mpf(q0.numerator) / q0.denominator, 1])
            assert abs(symbolic - quad) < mpf(10) ** -20


class TestLogLaurent:
    def test_eval_examples(self):
        assert eval_at(LogLaurent(LaurentPoly({-1: 1})), F(1, 2)) == 2
        # 2 log q - q + 1/q at q = 1/2 -> 3/2 - 2 log 2
        f = LogLaurent(LaurentPoly({1: -1, -1: 1}), F(2))
        got = eval_at(f, F(1, 2), PrecisionContext(bits=128))
        with mp.workprec(128):
            want = mpf(3) / 2 - 2 * mpmath.log(2)
            assert abs(got - want) < mpf(2) ** -120

    @given(
        st.dictionaries(st.integers(-3, 3), rationals, max_size=4),
        rationals,
    )
    def test_log_term_vanishes_at_one(self, terms, log_coeff):
        f = LogLaurent(LaurentPoly(terms), log_coeff)
        plain = LogLaurent(LaurentPoly(terms))
        assert eval_at(f, 1) == eval_at(plain, 1)

    @pytest.mark.parametrize("q", [0, -1, F(3, 2)])
    def test_domain(self, q):
        with pytest.raises(DomainError):
            eval_at(LogLaurent(LaurentPoly({0: 1}), F(1)), q)

    def test_scalar_algebra(self):
        f = LogLaurent(LaurentPoly({-1: 1}), F(2))
        assert f - f == LogLaurent(LaurentPoly())
        assert (F(1, 2) * f).log_coeff == 1


class TestContextAndInterval:
    def test_interval_orientation(self):
        with pytest.raises(ValueError):
            Interval(mpf(1), mpf(0))
        box = Interval(mpf(0), mpf(1))
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
