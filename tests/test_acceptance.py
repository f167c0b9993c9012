"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Everything is checked at 256-bit precision against brute-force
oracles; the runtime-limited criteria assert their own wall-clock budgets.
"""

import math
import time
from fractions import Fraction as F

import mpmath
import pytest
from mpmath import mp, mpf

from entropy_bounds import (
    DEFAULT_CONTEXT,
    PrecisionContext,
    binomial_central_moment,
    binomial_coeffs,
    binomial_entropy_oracle,
    entropy_binomial_bounds,
    entropy_binomial_stirling_m1,
    entropy_poisson_large,
    entropy_poisson_small,
    expected_log_binomial,
    expected_log_binomial_bounds,
    expected_log_poisson,
    expected_log_poisson_bounds,
    moment_oracle_binomial,
    moment_oracle_poisson,
    poisson_central_moment,
    poisson_coeffs,
    poisson_entropy_oracle,
    relative_entropy_bounds,
    relative_entropy_exact,
    relative_entropy_oracle,
)
from golden_data import BINOMIAL_A, BINOMIAL_B, FIGURE_GAPS, TABLE_A, TABLE_B

CTX = DEFAULT_CONTEXT
ORACLE_CTX = PrecisionContext(bits=CTX.bits + 64)
N_GRID = (5, 10, 30, 100, 300)
P_GRID = (0.05, 0.2, 0.5, 0.8, 0.95)

_oracle_cache: dict = {}


def poisson_entropy(lam) -> mpf:
    key = ("H", str(lam))
    if key not in _oracle_cache:
        _oracle_cache[key], _ = poisson_entropy_oracle(lam, CTX)
    return _oracle_cache[key]


def ok(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:2d} PASS: {text}")


def test_criterion_01_published_table_reproduced():
    start = time.perf_counter()
    for (m, k), want in TABLE_A.items():
        assert poisson_coeffs(m).a[k] == want, ("a", m, k)
    for (m, k), want in TABLE_B.items():
        assert poisson_coeffs(m).b[k] == want, ("b", m, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    ok(1, f"all {len(TABLE_A) + len(TABLE_B)} tabulated rationals derived exactly "
          f"({elapsed:.3f}s)")


def test_criterion_02_published_coefficient_functions():
    # symbolic equality after eliminating p = 1 - q
    for (m, k), want in BINOMIAL_B.items():
        assert binomial_coeffs(m).b_tilde[k] == want, ("b", m, k)
    for (m, k), want in BINOMIAL_A.items():
        assert binomial_coeffs(m).a_tilde[k] == want, ("a", m, k)

    # numeric agreement with the printed algebra at q = 0.1, 0.5, 0.9
    with mp.workprec(320):
        for q in (mpf("0.1"), mpf("0.5"), mpf("0.9")):
            p, lq = 1 - q, mpmath.log(q)
            printed = {
                ("b", 1, 1): -lq / 2 + q / 3 - 1 / (6 * q) - mpf(1) / 6,
                ("a", 1, 1): 2 * lq - q + 1 / q,
                ("a", 1, 2): -4 * lq + 2 * q - 7 / (3 * q) + 1 / (6 * q**2) + mpf(1) / 6,
                ("b", 2, 1): p**2 / (12 * q),
                ("b", 2, 2): 3 * lq / 2 - q / 2 + 17 / (12 * q) - 5 / (24 * q**2) - mpf(17) / 24,
                ("b", 2, 3): -3 * lq + 6 * q / 5 - 5 / (2 * q) + 3 / (8 * q**2)
                             - 1 / (60 * q**3) + mpf(113) / 120,
                ("a", 2, 2): -9 * lq + 3 * q - 9 / q + 3 / (2 * q**2) + mpf(9) / 2,
                ("a", 2, 3): 78 * lq - 26 * q + 83 / q - 18 / q**2 + 5 / (3 * q**3) - mpf(122) / 3,
                ("a", 2, 4): -72 * lq + 24 * q - 78 / q + 18 / q**2 - 31 / (15 * q**3)
                             + 1 / (20 * q**4) + mpf(2281) / 60,
            }
            for (kind, m, k), want in printed.items():
                cs = binomial_coeffs(m)
                fn = cs.b_tilde[k] if kind == "b" else cs.a_tilde[k]
                assert abs(fn(q, lq) - want) <= mpf("1e-25"), (kind, m, k, q)
    ok(2, "order-1 and order-2 binomial coefficient functions match the "
          "published forms symbolically and numerically")


def test_criterion_03_expansion_prefix():
    assert poisson_coeffs(3).b[1] == F(-1, 12)
    assert poisson_coeffs(3).b[2] == F(-1, 24)
    for m in range(2, 7):
        for m_higher in range(m, 7):
            for k in range(1, m):
                assert poisson_coeffs(m).b[k] == poisson_coeffs(m_higher).b[k]
    ok(3, "expansion prefix b(m, k), k <= m-1, is stable across orders 2..6")


def test_criterion_04_figure_gap_values():
    start = time.perf_counter()
    for (m, lam), quoted in FIGURE_GAPS.items():
        gap = float(entropy_poisson_large(lam, m, CTX).gap)
        assert abs(gap / quoted - 1) < 0.1, (m, lam, gap)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    ok(4, f"all six quoted gap values reproduced within 10% ({elapsed:.3f}s)")


def test_criterion_05_sandwich_soundness():
    start = time.perf_counter()
    checks = 0

    for lam in (0.1, 0.5, 1, 2, 5, 10, 20, 50, 100):
        value = poisson_entropy(lam)
        log_value = expected_log_poisson(lam, ORACLE_CTX)
        for m in range(1, 6):
            assert entropy_poisson_large(lam, m, CTX).contains(value), (lam, m)
            assert expected_log_poisson_bounds(lam, m, CTX).contains(log_value), (lam, m)
            checks += 2

    for tenth in range(1, 11):
        lam = F(tenth, 10)
        value = poisson_entropy(lam)
        for m in range(1, 9):
            assert entropy_poisson_small(lam, m, CTX).contains(value), (lam, m)
            checks += 1

    for n in N_GRID:
        for p in P_GRID:
            with mp.workprec(CTX.bits + 64):
                q = 1 - mpf(p)
            d_value = relative_entropy_oracle(n, p, CTX)
            h_value = binomial_entropy_oracle(n, p, CTX)
            # the oracle gives E[log((B + 1)/(ns))], the bound E[log(B + 1)]
            M = ORACLE_CTX.mp
            log_value = M.fadd(expected_log_binomial(n, p, ORACLE_CTX), M.log(n * M.mpf(p)))
            for m in range(1, 6):
                assert relative_entropy_bounds(n, p, m, CTX).contains(d_value), (n, p, m)
                assert entropy_binomial_bounds(n, p, m, CTX).contains(h_value), (n, p, m)
                rep = expected_log_binomial_bounds(n, p, m, CTX)
                assert rep.contains(log_value), (n, p, m)
                checks += 3
            assert entropy_binomial_stirling_m1(n, p, CTX).contains(h_value), (n, p)
            checks += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    ok(5, f"zero sandwich violations in {checks} containment checks ({elapsed:.2f}s)")


def test_criterion_06_exact_formula_equivalence():
    worst = mpf(0)
    with mp.workprec(320):
        for n in range(1, 31):
            for tenth in range(1, 10):
                p = tenth / 10
                v = relative_entropy_exact(n, p, CTX)
                o = relative_entropy_oracle(n, p, CTX)
                rel = abs(v - o) / abs(o)
                worst = max(worst, rel)
        assert worst <= mpf("1e-25")
    ok(6, f"exact expansion equals the oracle for n <= 30 "
          f"(worst relative error {mpmath.nstr(worst, 3)})")


def test_criterion_07_small_numbers_rate_law():
    errors = []
    with mp.workprec(320):
        for n in (10**2, 10**3, 10**4):
            d = relative_entropy_oracle(n, mpf(1) / n, CTX)
            err = abs(n * n * d - mpf(1) / 4)
            assert err <= mpf(5) / n, (n, err)
            errors.append(err)
        assert errors[0] > errors[1] > errors[2]
    ok(7, "n^2 D(n, 1/n) approaches 1/4 monotonically, within 5/n at every n")


def test_criterion_08_limit_degeneration():
    target = entropy_poisson_large(5, 1, CTX)
    n = 10**5
    with mp.workprec(CTX.bits + 64):
        p = mpf(5) / n
    rep = entropy_binomial_stirling_m1(n, p, CTX)
    with mp.workprec(320):
        d_lower = abs(rep.lower - target.lower)
        d_upper = abs(rep.upper - target.upper)
        assert d_lower <= mpf("1e-3") and d_upper <= mpf("1e-3"), (d_lower, d_upper)
    ok(8, f"closed-form binomial bounds at p = 5/n reach the Poisson order-1 "
          f"bounds at lambda = 5 (endpoint errors {mpmath.nstr(d_lower, 2)}, "
          f"{mpmath.nstr(d_upper, 2)})")


def test_criterion_09_factorization_identity():
    worst = mpf(0)
    with mp.workprec(320):
        for n in N_GRID:
            base = mpmath.log(mpf(math.factorial(n))) - n * mpmath.log(n) + n
            for p in P_GRID:
                q = 1 - mpf(p)
                lhs = binomial_entropy_oracle(n, p, CTX)
                rhs = base - relative_entropy_oracle(n, p, CTX) - relative_entropy_oracle(n, q, CTX)
                rel = abs(lhs - rhs) / max(1, abs(lhs))
                worst = max(worst, rel)
        assert worst <= mpf("1e-25")
    ok(9, f"entropy factorization identity holds on the grid "
          f"(worst error {mpmath.nstr(worst, 3)})")


def _gauss_legendre(count: int):
    """Nodes and weights on [-1, 1] by Newton iteration on the degree-n
    Legendre polynomial (ambient precision)."""

    def legendre_pair(x):
        p_prev, p_cur = mpf(1), x
        for j in range(2, count + 1):
            p_prev, p_cur = p_cur, ((2 * j - 1) * x * p_cur - (j - 1) * p_prev) / j
        deriv = count * (x * p_cur - p_prev) / (x * x - 1)
        return p_cur, deriv

    nodes, weights = [], []
    tol = mpf(2) ** (-mp.prec + 8)
    for i in range(1, count + 1):
        x = mpmath.cos(mpmath.pi * (i - mpf(1) / 4) / (count + mpf(1) / 2))
        for _ in range(200):
            value, deriv = legendre_pair(x)
            step = value / deriv
            x -= step
            if abs(step) < tol:
                break
        _, deriv = legendre_pair(x)
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * deriv * deriv))
    return nodes, weights


def test_criterion_10_derivative_and_integral_crosschecks():
    # d/d(lam) of the entropy equals E[log(N + 1)] - log lam
    with mp.workprec(320):
        h = mpf("1e-4")
        for lam in (2, 10):
            hi, _ = poisson_entropy_oracle(lam + h, CTX)
            lo, _ = poisson_entropy_oracle(lam - h, CTX)
            derivative = (hi - lo) / (2 * h)
            direct = expected_log_poisson(lam, CTX) - mpmath.log(lam)
            assert abs(derivative - direct) <= mpf("1e-6"), lam

    # D(n, p) equals n * integral_q^1 E[log((B_{n-1,s}+1)/(ns))] ds
    n, p = 10, 0.4
    with mp.workprec(280):
        nodes, weights = _gauss_legendre(64)
        q = 1 - mpf(p)
        mid, half = (1 + q) / 2, (1 - q) / 2
        integral = mpf(0)
        for x, w in zip(nodes, weights):
            integral += w * expected_log_binomial(n, mid + half * x, CTX)
        reconstructed = n * half * integral
        direct = relative_entropy_oracle(n, p, CTX)
        gap = abs(reconstructed - direct)
        assert gap <= mpf("1e-8")
    ok(10, f"derivative identity within 1e-6 and 64-node quadrature "
           f"reconstruction within 1e-8 (got {mpmath.nstr(gap, 3)})")


def test_criterion_11_moment_validation():
    start = time.perf_counter()
    for k in range(13):
        for s in (F(1, 2), F(2), F(7, 3)):
            oracle_value = moment_oracle_poisson(k, s, CTX)
            with mp.workprec(320):
                exact = poisson_central_moment(k)(s)
                exact_m = mpf(exact.numerator) / exact.denominator
                assert abs(oracle_value - exact_m) <= mpf("1e-25") * max(1, abs(exact_m)), (k, s)

    for k in range(13):
        for n in range(1, 21):
            for s in (F(1, 3), F(1, 2), F(7, 10)):
                assert binomial_central_moment(k)(n, s) == moment_oracle_binomial(k, n, s)

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    ok(11, f"moment polynomials validated against both oracles ({elapsed:.2f}s)")
