"""Brute-force oracle self-tests: closed-form anchors, distribution
identities, and precision-escalation stability."""

import math
from fractions import Fraction as F
from itertools import count

import mpmath
import pytest
from mpmath import mp, mpf

from entropy_bounds import (
    DEFAULT_CONTEXT,
    DomainError,
    PrecisionContext,
    binomial_entropy_oracle,
    entropy_poisson_large,
    entropy_poisson_small,
    expected_log_binomial,
    expected_log_poisson,
    expected_log_poisson_bounds,
    poisson_entropy_oracle,
    relative_entropy_exact,
    relative_entropy_oracle,
)
from entropy_bounds.oracle import _binomial_log_pmf, poisson_expectation
from entropy_bounds.symbolic import to_mpf

GRID = [(n, p) for n in (5, 10, 30, 100) for p in (0.05, 0.2, 0.5, 0.8, 0.95)]


class TestPoissonEntropyOracle:
    def test_zero_mean(self):
        value, receipt = poisson_entropy_oracle(0)
        assert value == 0
        assert receipt.tail_bound == 0

    def test_receipt_certifies_target(self):
        # every receipt certifies its tail to 2^-bits, far past any float's range at 2000 bits
        for bits in (64, 256, 1000, 2000):
            ctx = PrecisionContext(bits=bits)
            M = ctx.mp
            for lam in (F(1, 1000), F(1, 10), 1, 100, 1000):
                s = to_mpf(lam, M)
                receipts = [
                    poisson_entropy_oracle(lam, ctx)[1],
                    poisson_expectation(s, lambda: map(M.log, count(1)), ctx)[1],
                    poisson_expectation(s, lambda: ((j - s) ** 6 for j in count()), ctx)[1],
                ]
                for receipt in receipts:
                    assert 0 <= receipt.rel_err_bound <= M.ldexp(1, -bits)
                    assert receipt.terms_used > 0

    def test_contained_in_small_mean_interval(self):
        value, _ = poisson_entropy_oracle(1)
        assert entropy_poisson_small(1, m=4).interval.contains(value)

    def test_contained_in_large_mean_interval(self):
        value, _ = poisson_entropy_oracle(10)
        assert entropy_poisson_large(10, m=3).interval.contains(value)

    def test_precision_escalation_consistency(self):
        ctx2 = PrecisionContext(bits=512)
        for lam in (0.5, 10):
            v1, _ = poisson_entropy_oracle(lam, DEFAULT_CONTEXT)
            v2, _ = poisson_entropy_oracle(lam, ctx2)
            assert abs(v1 - v2) <= mpf("1e-30") * abs(v2)

    def test_domain(self):
        with pytest.raises(DomainError):
            poisson_entropy_oracle(-1)


class TestBinomialEntropyOracle:
    def test_degenerate(self):
        assert binomial_entropy_oracle(7, 0) == 0
        assert binomial_entropy_oracle(7, 1) == 0

    def test_single_trial(self):
        with mp.workprec(300):
            assert abs(binomial_entropy_oracle(1, 0.5) - mpmath.log(2)) < mpf("1e-70")

    @pytest.mark.parametrize("n,p", [(10, 0.3), (50, 0.5), (100, 0.95)])
    def test_factorization_identity(self, n, p):
        """H(n,p) = log n! - n log n + n - D(n,p) - D(n,q)."""
        with mp.workprec(320):
            q = 1 - mpf(p)  # exact complement of the binary value of p
            lhs = binomial_entropy_oracle(n, p)
            base = mpmath.log(mpf(math.factorial(n))) - n * mpmath.log(n) + n
            rhs = base - relative_entropy_oracle(n, p) - relative_entropy_oracle(n, q)
            assert abs(lhs - rhs) < mpf("1e-25") * max(1, abs(lhs))


class TestRelativeEntropyOracle:
    def test_degenerate(self):
        assert relative_entropy_oracle(9, 0) == 0

    def test_single_trial(self):
        with mp.workprec(300):
            p = mpf(0.3)  # same binary value the oracle sees
            want = p + (1 - p) * mpmath.log(1 - p)
            assert abs(relative_entropy_oracle(1, 0.3) - want) < mpf("1e-70")

    def test_certain_success(self):
        # all mass at k = n
        with mp.workprec(300):
            n = 6
            want = n - n * mpmath.log(n) + mpmath.log(mpf(math.factorial(n)))
            assert abs(relative_entropy_oracle(n, 1) - want) < mpf("1e-70")

    def test_agrees_with_exact_expansion(self):
        v = relative_entropy_exact(10, 0.3)
        o = relative_entropy_oracle(10, 0.3)
        assert abs(v - o) <= mpf("1e-25") * max(1, abs(o))


class TestExpectedLogOracles:
    def test_poisson_small_mean_limit(self):
        assert abs(expected_log_poisson(1e-6)) < mpf("1e-5")

    def test_poisson_consistency_with_bounds(self):
        value = expected_log_poisson(5)
        assert expected_log_poisson_bounds(5, m=3).interval.contains(value)

    def test_poisson_reproducible_across_precisions(self):
        v128 = expected_log_poisson(1, PrecisionContext(bits=128))
        v256 = expected_log_poisson(1, PrecisionContext(bits=256))
        assert abs(v128 - v256) < mpf("1e-30")

    def test_binomial_single_trial(self):
        with mp.workprec(300):
            s = mpf(0.37)  # same binary value the oracle sees
            assert abs(expected_log_binomial(1, 0.37) + mpmath.log(s)) < mpf("1e-70")

    def test_binomial_near_one(self):
        value = expected_log_binomial(50, 1 - 1e-6)
        assert mpmath.isfinite(value)

    @pytest.mark.parametrize("n,p", [(8, 0.25), (20, 0.6)])
    def test_size_bias_identity(self, n, p):
        """np E[phi(B_{n-1,p} + 1)] = E[B_{n,p} phi(B_{n,p})], phi = log(1+.)."""
        with mp.workprec(320):
            pm = mpf(p)
            lhs = n * pm * sum(
                mpmath.exp(lp) * mpmath.log(k + 2)
                for k, lp in enumerate(_binomial_log_pmf(n - 1, pm))
            )
            rhs = sum(
                mpmath.exp(lp) * k * mpmath.log(k + 1)
                for k, lp in enumerate(_binomial_log_pmf(n, pm))
            )
            assert abs(lhs - rhs) < mpf("1e-25") * max(1, abs(rhs))


class TestPrecisionEscalation:
    """Every oracle recomputed at doubled precision agrees to the target."""

    def test_grid(self):
        ctx2 = PrecisionContext(bits=512)
        for n, p in [(5, 0.2), (30, 0.5), (100, 0.95)]:
            for fn in (binomial_entropy_oracle, relative_entropy_oracle):
                v1 = fn(n, p, DEFAULT_CONTEXT)
                v2 = fn(n, p, ctx2)
                assert abs(v1 - v2) <= mpf("1e-30") * max(1, abs(v2))
        e1 = expected_log_binomial(20, 0.5, DEFAULT_CONTEXT)
        e2 = expected_log_binomial(20, 0.5, PrecisionContext(bits=512))
        assert abs(e1 - e2) <= mpf("1e-30") * max(1, abs(e2))
