"""Central-moment polynomials against their published values and oracles."""

import hashlib
import subprocess
import sys
from fractions import Fraction as F

import pytest
from mpmath import mp, mpf
from mpmath.libmp import to_rational

from entropy_bounds import (
    DEFAULT_CONTEXT,
    DomainError,
    LaurentPoly,
    PrecisionContext,
    binomial_central_moment,
    moment_oracle_binomial,
    moment_oracle_poisson,
    poisson_central_moment,
)
from entropy_bounds.coefficients import expected_log_series
from entropy_bounds.oracle import _outward, _poisson_law
from entropy_bounds.symbolic import _log_factorial_reader, _mp_context, to_mpf

from conftest import child_env

S_SAMPLES = (F(1, 2), F(2), F(7, 3))


def as_mpf(x: F) -> mpf:
    return mpf(x.numerator) / x.denominator


class TestPoissonMoments:
    def test_first_values(self):
        assert poisson_central_moment(0) == LaurentPoly({0: 1})
        assert poisson_central_moment(1) == LaurentPoly()
        assert poisson_central_moment(2) == LaurentPoly({1: 1})
        assert poisson_central_moment(3) == LaurentPoly({1: 1})
        assert poisson_central_moment(4) == LaurentPoly({1: 1, 2: 3})
        assert poisson_central_moment(5) == LaurentPoly({1: 1, 2: 10})

    @pytest.mark.parametrize("k", range(2, 13))
    def test_degree(self, k):
        assert max(e for e, _ in poisson_central_moment(k).terms()) == k // 2

    # up to mu_22, the highest moment the fixture sets of order 10 read
    @pytest.mark.parametrize("k", range(23))
    @pytest.mark.parametrize("s", S_SAMPLES)
    def test_matches_oracle(self, k, s):
        value = moment_oracle_poisson(k, s)
        exact = poisson_central_moment(k)(s)
        with mp.workprec(300):
            diff = abs(value - as_mpf(exact))
            assert diff <= mpf("1e-25") * max(1, abs(as_mpf(exact)))

    @pytest.mark.parametrize("bits", [64, 256])
    @pytest.mark.parametrize("s", [F(1, 3), F(7, 2), 1000, F(1, 10**9)], ids=str)
    def test_oracle_is_exact(self, s, bits):
        # the oracle is mu_k at the point it reads, rounded once
        ctx = PrecisionContext(bits)
        point = F(*to_rational(to_mpf(s, ctx.mp)._mpf_))
        for k in range(25):
            exact = to_mpf(poisson_central_moment(k)(point), _mp_context(bits))
            assert moment_oracle_poisson(k, s, ctx)._mpf_ == exact._mpf_, k

    def test_oracle_simple_values(self):
        # mean deviation is zero; second moment equals the mean
        assert moment_oracle_poisson(1, 5) == 0
        assert moment_oracle_poisson(2, 3) == 3

    def test_oracle_domain(self):
        with pytest.raises(DomainError):
            moment_oracle_poisson(2, 0)

    @pytest.mark.parametrize("k", [2, 4, 6, 8, 10, 12, 14])
    @pytest.mark.parametrize("s", [F(1, 10), F(1), F(50)])
    def test_even_moments_nonnegative(self, k, s):
        assert poisson_central_moment(k)(s) >= 0


class TestBinomialMoments:
    def test_first_values(self):
        n_s_q = LaurentPoly({(1, 1): 1, (1, 2): -1})  # n s (1-s)
        assert binomial_central_moment(0) == LaurentPoly({(0, 0): 1})
        assert binomial_central_moment(1) == LaurentPoly()
        assert binomial_central_moment(2) == n_s_q
        assert binomial_central_moment(3) == LaurentPoly({(0, 0): 1, (0, 1): -2}) * n_s_q
        expected_mu4 = 3 * (n_s_q * n_s_q) + LaurentPoly({(0, 0): 1, (0, 1): -6, (0, 2): 6}) * n_s_q
        assert binomial_central_moment(4) == expected_mu4

    @pytest.mark.parametrize("k", range(23))
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 12, 20])
    def test_exact_equality_with_finite_sum(self, k, n):
        for s in (F(1, 3), F(1, 2), F(7, 10)):
            assert binomial_central_moment(k)(n, s) == moment_oracle_binomial(k, n, s)

    def test_oracle_simple_values(self):
        assert moment_oracle_binomial(0, 7, F(1, 4)) == 1
        assert moment_oracle_binomial(2, 4, F(1, 2)) == 1  # n s (1-s)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_bernoulli_specialization(self, k):
        # at n = 1 the moment must be s(1-s)((1-s)^(k-1) - (-s)^(k-1)); both
        # sides have degree <= k + 1 in s, so agreeing at k + 2 distinct
        # points makes them the same polynomial
        for j in range(1, k + 3):
            s = F(j, k + 3)
            expected = s * (1 - s) * ((1 - s) ** (k - 1) - (-s) ** (k - 1))
            assert binomial_central_moment(k)(1, s) == expected

    @pytest.mark.parametrize("k", range(2, 9))
    def test_poisson_degeneration(self, k):
        # binomial(n, lam/n) moments approach Poisson(lam) moments at rate ~ 1/n
        lam = F(5, 2)
        target = poisson_central_moment(k)(lam)
        errors = [
            abs(binomial_central_moment(k)(n, lam / n) - target)
            for n in (10**3, 10**4, 10**5)
        ]
        assert errors[0] > errors[1] > errors[2]
        assert errors[1] <= errors[0] / 5
        assert errors[2] <= errors[1] / 5

    @pytest.mark.parametrize(
        "n,s", [(5, F(1, 4)), (20, F(1, 2)), (50, F(9, 10))]
    )
    def test_even_moments_nonnegative(self, n, s):
        for k in (2, 4, 6, 8, 10, 12):
            assert binomial_central_moment(k)(n, s) >= 0

    def test_validation(self):
        with pytest.raises(ValueError):
            binomial_central_moment(-1)
        with pytest.raises(ValueError):
            moment_oracle_binomial(2, 0, F(1, 2))
        with pytest.raises(DomainError):
            moment_oracle_binomial(2, 5, F(3, 2))


def poisson_limit(f: LaurentPoly) -> LaurentPoly:
    """The limit of f(n, s/n) as n -> oo, for f over (n, s): a term n^a s^b becomes s^b n^(a-b),
    so the terms with a = b survive, and none may have a > b."""
    assert all(a <= b for (a, b), _ in f.terms()), f
    return LaurentPoly({b: c for (a, b), c in f.terms() if a == b})


class TestPoissonLimit:
    """B_{n,s/n} -> Poisson(s) as n -> oo, exactly in the polynomials: each Poisson quantity is
    the n -> oo limit of its binomial one at s/n."""

    @pytest.mark.parametrize("k", range(43))
    def test_central_moments(self, k):
        assert poisson_limit(binomial_central_moment(k)) == poisson_central_moment(k)

    @pytest.mark.parametrize("m", range(1, 21))
    def test_expected_log_series(self, m):
        lower, gap = expected_log_series("binomial", m)
        assert (poisson_limit(lower), poisson_limit(gap)) == expected_log_series("poisson", m)


class TestSizeBiasIdentity:
    """lam E[phi(N+1)] = E[N phi(N)] for the Poisson law, phi = log(1 + .)."""

    @pytest.mark.parametrize("lam", [F(1, 2), F(2), F(10)])
    def test_identity(self, lam):
        # both weights are log-concave, as the oracles' walk requires: log(j + 2) is concave,
        # and so is log(j log(j + 1)) = log j + log log(j + 1)
        M = PrecisionContext(bits=256).mp
        lam_m = to_mpf(lam, M)
        read, e = _log_factorial_reader(M.prec)
        law = _poisson_law(lam_m, M.prec, read, e)
        shifted = _outward(law, lambda j: (read(j + 2) - read(j + 1), e), M)[0]
        rhs = _outward(law, lambda j: (j * (read(j + 1) - read(j)), e), M)[0]
        lhs = lam_m * shifted
        assert abs(lhs - rhs) <= mpf("1e-25") * max(1, abs(rhs))


def test_moment_caches_are_consistent():
    # memoized objects are reused and immutable
    assert poisson_central_moment(6) is poisson_central_moment(6)
    assert binomial_central_moment(6) is binomial_central_moment(6)


def _digest(mu: LaurentPoly) -> str:
    return hashlib.sha256(repr((sorted(mu._num.items()), mu._den)).encode()).hexdigest()


def test_cold_deep_moments_need_no_deep_recursion():
    # a fresh interpreter, so nothing is warm, with a recursion limit below the order asked
    # for: each moment fills the orders below it in ascending order, as a recursion once per
    # order would raise RecursionError here
    code = (
        "import hashlib, sys\n"
        "from entropy_bounds import binomial_central_moment, poisson_central_moment\n"
        "sys.setrecursionlimit(120)\n"
        "for mu in (poisson_central_moment(150), binomial_central_moment(150)):\n"
        "    print(hashlib.sha256(repr((sorted(mu._num.items()), mu._den)).encode()).hexdigest())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == [_digest(poisson_central_moment(150)),
                                   _digest(binomial_central_moment(150))]
