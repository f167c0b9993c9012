"""Coefficient derivation against published tables, closed forms, and
independent quadrature/finite-difference oracles."""

import json
import math
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpf

from conftest import child_env
from entropy_bounds import (
    CoeffSet,
    DEFAULT_CONTEXT,
    PrecisionContext,
    binomial_coeffs,
    c_coeff,
    c_tilde_coeff,
    poisson_central_moment,
    poisson_coeffs,
    stirling_m1_constants,
)
from entropy_bounds import cli, coefficients
from entropy_bounds.coefficients import _symmetric_coeffs, _symmetrize_pq
from golden_data import (
    BINOMIAL_A,
    BINOMIAL_B,
    STIRLING_C1,
    STIRLING_C2,
    STIRLING_C3,
    STIRLING_C4,
    TABLE_A,
    TABLE_B,
    loglaurent,
)

ROOT = Path(__file__).resolve().parents[1]


class TestPoissonCoefficients:
    def test_published_table(self):
        """Every tabulated a(m, k), b(m, k) for m = 1..4 is derived exactly."""
        for m in range(1, 5):
            cs = poisson_coeffs(m)
            for (mm, k), want in TABLE_A.items():
                if mm == m:
                    assert cs.a[k] == want, (m, k)
            for (mm, k), want in TABLE_B.items():
                if mm == m:
                    assert cs.b[k] == want, (m, k)

    def test_index_ranges(self):
        for m in (1, 3, 5):
            cs = poisson_coeffs(m)
            assert set(cs.b) == set(range(1, 2 * m))
            assert set(cs.a) == set(range(m, 2 * m + 1))

    def test_gap_coefficients_nonnegative(self):
        for m in range(1, 7):
            assert all(v >= 0 for v in poisson_coeffs(m).a.values())

    def test_order_two_displayed_inequality(self):
        # upper polynomial 5/24 x^2 + 1/60 x^3; lower = upper - gap
        cs = poisson_coeffs(2)
        assert cs.b[1] == F(-1, 12)
        assert {k: cs.b[k] for k in (2, 3)} == {2: F(5, 24), 3: F(1, 60)}
        lower = {k: cs.b.get(k, F(0)) - cs.a.get(k, F(0)) for k in (2, 3, 4)}
        assert lower == {2: F(-31, 24), 3: F(-33, 20), 4: F(-1, 20)}

    def test_expansion_prefix_is_stable(self):
        # b(m, k) for k <= m-1 is independent of m: those terms are exact
        for m in range(2, 11):
            for m_higher in range(m + 1, 11):
                for k in range(1, m):
                    assert poisson_coeffs(m).b[k] == poisson_coeffs(m_higher).b[k]

    def test_leading_terms(self):
        cs = poisson_coeffs(3)
        assert cs.b[1] == F(-1, 12)
        assert cs.b[2] == F(-1, 24)
        # the next two terms of the expansion of H(lam) (Knessl; Jacquet and
        # Szpankowski; Flajolet)
        cs = poisson_coeffs(5)
        assert cs.b[3] == F(-19, 360)
        assert cs.b[4] == F(-9, 80)

    @pytest.mark.parametrize("m", [1, 5])
    def test_against_quadrature(self, m):
        """Tail quadrature of the defining integrals at lambda = 1."""

        def expansion_integrand(s):
            return sum(
                (-1) ** (j - 1) * poisson_central_moment(j)(s) / (j * (j - 1) * s**j)
                for j in range(3, 2 * m + 2)
            )

        def gap_integrand(s):
            k = 2 * m + 2
            return poisson_central_moment(k)(s) / ((k - 1) * s**k)

        cs = poisson_coeffs(m)
        with mp.workprec(192):
            beta_quad = mpmath.quad(expansion_integrand, [1, mpmath.inf])
            gap_quad = mpmath.quad(gap_integrand, [1, mpmath.inf])
            beta_sym = sum(mpf(v.numerator) / v.denominator for v in cs.b.values())
            gap_sym = sum(mpf(v.numerator) / v.denominator for v in cs.a.values())
            assert abs(beta_quad - beta_sym) < mpf("1e-25") * max(1, abs(beta_sym))
            assert abs(gap_quad - gap_sym) < mpf("1e-25") * max(1, abs(gap_sym))

    def test_bad_order(self):
        with pytest.raises(ValueError):
            poisson_coeffs(0)


class TestBinomialCoefficients:
    def test_published_closed_forms(self):
        for (m, k), want in BINOMIAL_B.items():
            assert binomial_coeffs(m).b_tilde[k] == want, ("b", m, k)
        for (m, k), want in BINOMIAL_A.items():
            assert binomial_coeffs(m).a_tilde[k] == want, ("a", m, k)

    def test_order_two_gap_spot_values(self):
        top = binomial_coeffs(2).a_tilde[4]
        assert top.laurent.coeff(0) == F(2281, 60)
        assert top.laurent.coeff(-4) == F(1, 20)

    def test_index_ranges(self):
        for m in (1, 2, 4):
            cs = binomial_coeffs(m)
            assert set(cs.b_tilde) == set(range(1, 2 * m))
            assert set(cs.a_tilde) == set(range(m, 2 * m + 1))

    def test_expansion_prefix_is_stable(self):
        # as for the Poisson law, b~(m, k) for k <= m-1 is independent of m
        for m in range(2, 11):
            for m_higher in range(m + 1, 11):
                for k in range(1, m):
                    assert binomial_coeffs(m).b[k] == binomial_coeffs(m_higher).b[k]

    @pytest.mark.parametrize("q", [F(1, 10), F(1, 2), F(9, 10)])
    def test_numeric_agreement_with_published_forms(self, q):
        """Pipeline output evaluated at q agrees with the printed algebra."""
        with mp.workprec(256):
            qm = mpf(q.numerator) / q.denominator
            pm = 1 - qm
            log_q = mpmath.log(qm)
            direct = {
                ("b", 1, 1): -log_q / 2 + qm / 3 - 1 / (6 * qm) - mpf(1) / 6,
                ("a", 1, 1): 2 * log_q - qm + 1 / qm,
                ("a", 1, 2): -4 * log_q + 2 * qm - 7 / (3 * qm) + 1 / (6 * qm**2) + mpf(1) / 6,
                ("b", 2, 1): pm**2 / (12 * qm),
                ("a", 2, 2): -9 * log_q + 3 * qm - 9 / qm + 3 / (2 * qm**2) + mpf(9) / 2,
            }
            for (kind, m, k), want in direct.items():
                cs = binomial_coeffs(m)
                fn = cs.b_tilde[k] if kind == "b" else cs.a_tilde[k]
                assert abs(fn(qm, log_q) - want) < mpf("1e-40"), (kind, m, k)

    def test_poisson_limit_of_first_expansion_term(self):
        """The symmetrized order-1 expansion term, Stirling-corrected, tends
        to the Poisson b(1,1)/lam as p = lam/n -> 0."""
        _, _, _, c4 = stirling_m1_constants()
        lam = 5
        target = mpf(1) / (6 * lam)
        with mp.workprec(128):
            errors = []
            for n in (10**3, 10**4, 10**5):
                p = mpf(lam) / n
                u = p * (1 - p)
                errors.append(abs(c4(u, mpmath.log(u)) / n - target))
            assert errors[0] > errors[1] > errors[2]
            assert errors[2] < mpf("1e-3")


COEFF_SETS = json.loads((ROOT / "tests" / "fixtures" / "coeff_sets.json").read_text())


@pytest.mark.parametrize("kind", ["poisson", "binomial"])
@pytest.mark.parametrize("m", range(1, 11))
def test_coefficient_set_matches_fixture(capsys, kind, m):
    """Orders 1..10, beyond the published tables, exactly as
    `coeffs KIND --m M` exports them."""
    assert cli.main(["coeffs", kind, "--m", str(m)]) == 0
    assert json.loads(capsys.readouterr().out) == COEFF_SETS[kind][str(m)]


@pytest.mark.parametrize("b, a, message", [
    ({1: F(1), 2: F(1)}, {2: F(1), 3: F(1), 4: F(1)}, r"b indices must cover 1\.\.3"),
    ({1: F(1), 2: F(1), 3: F(1)}, {1: F(1), 2: F(1), 3: F(1)}, r"a indices must cover 2\.\.4"),
    ({1: F(1), 2: F(1), 3: F(1)}, {2: F(1), 3: F(-1, 7), 4: F(0)}, "must be nonnegative"),
])
def test_coefficient_set_rejects_a_malformed_set(b, a, message):
    with pytest.raises(ValueError, match=message):
        CoeffSet(m=2, b=b, a=a)


class TestSmallArgumentCoefficients:
    def test_closed_forms(self):
        with mp.workprec(300):
            assert abs(c_coeff(2) - mpmath.log(2)) < mpf("1e-70")
            assert abs(c_coeff(3) - mpmath.log(mpf(3) / 4)) < mpf("1e-70")

    @pytest.mark.parametrize("k", range(2, 16))
    def test_sign_alternation(self, k):
        assert mpmath.sign(c_coeff(k)) == (-1) ** k

    def test_against_uniform_sum_quadrature(self):
        """|c(12)| = 10! E[(1 + S_11)^(-11)] with S_11 a sum of 11 uniforms,
        checked by piecewise quadrature of the Irwin-Hall density."""
        k = 12
        r = k - 1
        with mp.workprec(192):
            norm = mpf(math.factorial(r - 1))

            def density(x):
                acc = mpf(0)
                for j in range(int(mpmath.floor(x)) + 1):
                    acc += (-1) ** j * math.comb(r, j) * (x - j) ** (r - 1)
                return acc / norm

            expect = mpf(0)
            for j in range(r):
                expect += mpmath.quad(lambda x: density(x) * (1 + x) ** (-(r)), [j, j + 1])
            want = math.factorial(k - 2) * expect  # positive since k is even
            got = c_coeff(k)
            assert mpmath.sign(got) == 1
            assert abs(got - want) < mpf("1e-20") * abs(want)

    def test_c_tilde_closed_forms(self):
        with mp.workprec(300):
            assert abs(c_tilde_coeff(2, 2) - mpmath.log(mpf(1) / 2)) < mpf("1e-70")
            assert abs(c_tilde_coeff(5, 2) - mpmath.log(mpf(4) / 5)) < mpf("1e-70")

    def test_c_tilde_stable_under_precision_doubling(self):
        ctx = DEFAULT_CONTEXT
        doubled = PrecisionContext(bits=2 * ctx.bits)
        v1 = c_tilde_coeff(10, 5, ctx)
        v2 = c_tilde_coeff(10, 5, doubled)
        assert ctx.round(v1) == ctx.round(v2)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            c_coeff(1)
        with pytest.raises(ValueError):
            c_tilde_coeff(4, 5)


def direct_log_difference(args, bits, logs=None):
    """sum_j (-1)^(k-1-j) C(k-1, j) log(args[j]), the direct alternating sum
    over k = len(args) arguments, evaluated at bits + k + ceil(k log2 M) + 64
    bits (M the largest argument) and rounded to ``bits``.

    ``logs[a]``, when given, is log a at no less than that precision.
    """
    k = len(args)
    with mp.workprec(bits + k + math.ceil(k * math.log2(max(args))) + 64):
        total = mpf(0)
        for j, a in enumerate(args):
            log_a = logs[a] if logs else mpmath.log(a)
            total += (-1) ** (k - 1 - j) * math.comb(k - 1, j) * log_a
    return PrecisionContext(bits).round(total)


def logs_up_to(top, bits):
    """log a for a = 1..top, precise enough for every direct sum over them."""
    with mp.workprec(bits + top + math.ceil(top * math.log2(top)) + 64):
        return [None] + [mpmath.log(a) for a in range(1, top + 1)]


class TestSmallArgumentReference:
    """Every c and c~ equals the direct alternating sum, rounded once."""

    @pytest.mark.parametrize("bits", [64, 128, 256])
    @pytest.mark.parametrize("n", [2, 17, 160, 300])
    def test_every_c_tilde(self, n, bits):
        logs = logs_up_to(n, bits)
        ctx = PrecisionContext(bits)
        for k in range(2, n + 1):
            want = direct_log_difference(range(n, n - k, -1), bits, logs)
            assert c_tilde_coeff(n, k, ctx) == want, (n, k, bits)

    @pytest.mark.parametrize("bits", [64, 128, 256])
    def test_c_up_to_60(self, bits):
        logs = logs_up_to(60, bits)
        ctx = PrecisionContext(bits)
        for k in range(2, 61):
            assert c_coeff(k, ctx) == direct_log_difference(range(1, k + 1), bits, logs), (k, bits)

    @pytest.mark.parametrize("bits", [64, 128, 256])
    def test_c_past_the_first_table(self, bits):
        # k = 61..130: longer sums, whose a-priori precision climbs past the next multiples of 64
        logs = logs_up_to(130, bits)
        ctx = PrecisionContext(bits)
        for k in range(61, 131):
            assert c_coeff(k, ctx) == direct_log_difference(range(1, k + 1), bits, logs), (k, bits)

    def test_c_sweep_is_fast(self):
        # one fresh interpreter, so nothing is warm: each c(k) of c(2..200) is one
        # alternating sum over its k logs, read from a few shared ladder rungs
        code = (
            "import time\n"
            "from entropy_bounds import PrecisionContext, c_coeff\n"
            "ctx = PrecisionContext(256)\n"
            "t = time.perf_counter()\n"
            "for k in range(2, 201):\n"
            "    c_coeff(k, ctx)\n"
            "print(time.perf_counter() - t)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 0.1

    @pytest.mark.parametrize("k", [2, 3, 40, 64, 65])
    def test_c_tilde_at_huge_n(self, k):
        # no ladder over n..1 could be built here: c~(n, k) must read only
        # the k logs of n..n-k+1
        n = 10**12 + 39
        assert c_tilde_coeff(n, k, PrecisionContext(64)) == direct_log_difference(range(n, n - k, -1), 64)

    def test_each_coefficient_reads_only_its_own_logs(self, monkeypatch):
        # c~(n, k) and c(k) are each one alternating sum over exactly k logarithms
        counts = []

        def logs(args, prec, ladder):
            counts.append(len(args))
            return real(args, prec, ladder)

        real = coefficients._logs
        monkeypatch.setattr(coefficients, "_logs", logs)
        c_tilde_coeff(10**6, 10)
        c_coeff.cache_clear()
        c_coeff(5)
        assert counts == [10, 5]

    @given(st.integers(2, 400).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n))),
           st.integers(64, 320))
    def test_c_tilde_property(self, n_k, bits):
        n, k = n_k
        want = direct_log_difference(range(n, n - k, -1), bits)
        assert c_tilde_coeff(n, k, PrecisionContext(bits)) == want


class TestStirlingConstants:
    def test_closed_forms(self):
        c1, c2, c3, c4 = stirling_m1_constants()
        assert c1 == STIRLING_C1
        assert c2 == STIRLING_C2
        assert c3 == STIRLING_C3
        assert c4 == STIRLING_C4

    def test_third_constant_value(self):
        assert stirling_m1_constants()[2] == loglaurent(0, {0: F(-1, 360)})

    def test_fourth_constant_at_quarter(self):
        _, _, _, c4 = stirling_m1_constants()
        with mp.workprec(128):
            want = mpf(1) / 12 + mpmath.log(mpf(1) / 4) / 2 + mpf(2) / 3
            assert abs(c4(mpf(1) / 4, mpmath.log(mpf(1) / 4)) - want) < mpf("1e-35")

    def test_symbolic_sum_of_outer_constants(self):
        c1, _, _, c4 = stirling_m1_constants()
        want = loglaurent(-1, {0: F(7, 6), -1: F(-2, 3)})
        assert c1 + c4 == want


def _check_symmetrized(f, got):
    # exact: the log-free part of got at u = q(1 - q), read at log u = 0, is that of f at q plus
    # at 1 - q, and log p + log q = log u leaves the log coefficient as it was
    for q in (F(1, 2), F(3, 10), F(1, 7), F(99, 100), F(2, 3)):
        assert got(q * (1 - q), 0) == f(q, 0) + f(1 - q, 0), q
    assert got.coeff((0, 1)) == f.coeff((0, 1))


class TestSymmetricCoefficients:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_laurent_part_is_the_sum_at_q_and_p(self, m):
        cs, sym = binomial_coeffs(m), _symmetric_coeffs(m)
        for want, got in ((cs.b, sym.b), (cs.a, sym.a)):
            assert set(got) == set(want)
            for k, f in want.items():
                _check_symmetrized(f, got[k])

    def test_constant_term_doubles_but_log_term_does_not(self):
        # 1 + 1 = 2, but log q + log p = log u: 1 + log q goes to 2 + log u
        f = loglaurent(1, {0: 1})
        assert _symmetrize_pq(f) == loglaurent(1, {0: 2})
        _check_symmetrized(f, _symmetrize_pq(f))
