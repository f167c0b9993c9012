"""Precision is a property of the PrecisionContext passed in, never of
mpmath's process-wide state: results do not depend on the ambient ``mp.prec``,
leave it unchanged, and come back as default-context mpfs, and threads at
different precisions cannot corrupt each other."""

import sys
import threading
from fractions import Fraction as F
from itertools import count

import mpmath
import pytest
from mpmath import mp

from entropy_bounds import (
    DEFAULT_CONTEXT,
    BoundReport,
    LaurentPoly,
    LogLaurent,
    PrecisionContext,
    best_interval,
    binomial_coeffs,
    binomial_entropy_oracle,
    c_coeff,
    c_tilde_coeff,
    entropy_binomial_bounds,
    entropy_binomial_stirling_m1,
    entropy_poisson_ct,
    entropy_poisson_large,
    entropy_poisson_small,
    eval_at,
    expected_log_binomial,
    expected_log_binomial_bounds,
    expected_log_poisson,
    expected_log_poisson_bounds,
    moment_oracle_poisson,
    poisson_central_moment,
    poisson_entropy_oracle,
    poisson_expectation,
    relative_entropy_bounds,
    relative_entropy_exact,
    relative_entropy_oracle,
)
from entropy_bounds import coefficients, oracle, symbolic

CTX = PrecisionContext(bits=128)

# every public bound, oracle, coefficient function and eval_at, with
# arguments that reach each branch that returns a value
CALLS = {
    "entropy_poisson_small": (entropy_poisson_small, F(3, 10), 3),
    "entropy_poisson_small_zero": (entropy_poisson_small, 0, 2),
    "entropy_poisson_large": (entropy_poisson_large, F(7, 2), 3),
    "entropy_poisson_ct": (entropy_poisson_ct, F(7, 2)),
    "relative_entropy_exact": (relative_entropy_exact, 30, F(3, 10)),
    "relative_entropy_exact_p1": (relative_entropy_exact, 7, 1),
    "relative_entropy_bounds": (relative_entropy_bounds, 100, F(3, 10), 3),
    "entropy_binomial_bounds": (entropy_binomial_bounds, 100, F(3, 10), 2),
    "entropy_binomial_stirling_m1": (entropy_binomial_stirling_m1, 50, F(1, 5)),
    "expected_log_poisson_bounds": (expected_log_poisson_bounds, F(7, 2), 2),
    "expected_log_binomial_bounds": (expected_log_binomial_bounds, 20, F(1, 2), 2),
    "best_interval": (best_interval, entropy_poisson_large, F(7, 2)),
    "poisson_entropy_oracle": (poisson_entropy_oracle, F(7, 2)),
    "poisson_expectation": (poisson_expectation, F(7, 2), count),
    "poisson_expectation_zero": (poisson_expectation, 0, count),
    "binomial_entropy_oracle": (binomial_entropy_oracle, 30, F(3, 10)),
    "relative_entropy_oracle": (relative_entropy_oracle, 30, F(3, 10)),
    "relative_entropy_oracle_p1": (relative_entropy_oracle, 30, 1),
    "expected_log_poisson": (expected_log_poisson, F(7, 2)),
    "expected_log_binomial": (expected_log_binomial, 20, F(1, 2)),
    "expected_log_binomial_n1": (expected_log_binomial, 1, F(1, 2)),
    "moment_oracle_poisson": (moment_oracle_poisson, 4, F(7, 2)),
    "c_coeff": (c_coeff, 7),
    "c_tilde_coeff": (c_tilde_coeff, 40, 7),
    "eval_at_loglaurent": (eval_at, binomial_coeffs(2).a_tilde[2], F(7, 10)),
    "eval_at_laurentpoly": (eval_at, poisson_central_moment(6), F(7, 2)),
}


def _cold_call(fn, *args):
    """Call with every numeric cache empty, so nothing is served from a call
    made at another ambient precision."""
    for cached in (c_coeff, coefficients._c_tables, coefficients._c_tilde_tables,
                   oracle._log_table):
        cached.cache_clear()
    return fn(*args, ctx=CTX)


def _numbers(result) -> list:
    """The numbers a result carries: interval ends, midpoint, gap and order of
    a BoundReport; value and receipt fields of an oracle pair; else itself."""
    if isinstance(result, BoundReport):
        return [result.lower, result.upper, result.midpoint, result.gap, result.m]
    if isinstance(result, tuple):
        value, receipt = result
        return [value, receipt.terms_used, receipt.tail_bound, receipt.rel_err_bound]
    return [result]


def _bits(numbers: list) -> list:
    return [x._mpf_ if hasattr(x, "_mpf_") else x for x in numbers]


@pytest.mark.parametrize("name", sorted(CALLS))
def test_result_ignores_ambient_precision(name):
    fn, *args = CALLS[name]
    want = _numbers(_cold_call(fn, *args))
    for x in want:
        if hasattr(x, "_mpf_"):
            assert x.context is mpmath.mp, name
    for ambient in (20, 2000):
        with mp.workprec(ambient):
            got = _numbers(_cold_call(fn, *args))
            assert mp.prec == ambient, f"{name} changed mp.prec"
        assert _bits(got) == _bits(want), (name, ambient)
        for x in got:
            if hasattr(x, "_mpf_"):
                assert x.context is mpmath.mp, name


def _sweep(bits: int, repeats: int) -> list:
    ctx = PrecisionContext(bits=bits)
    return [(entropy_poisson_large(F(k, 4), 3, ctx), relative_entropy_bounds(200, F(k, 41), 4, ctx))
            for _ in range(repeats) for k in range(1, 41)]


def test_threads_at_different_precisions_do_not_interfere():
    precisions = (64, 1024, 64, 1024)  # more threads than the usual two cores
    repeats = 3
    expected = {bits: _sweep(bits, 1) * repeats for bits in set(precisions)}
    results: dict[int, list] = {}

    def work(i: int) -> None:
        results[i] = _sweep(precisions[i], repeats)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(precisions))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, bits in enumerate(precisions):
        assert results[i] == expected[bits], f"thread {i} at {bits} bits"


def test_polynomial_value_ignores_ambient_precision():
    # with no mpf coordinate, evaluation runs in DEFAULT_CONTEXT, not mpmath.mp
    log_laurent, poly = binomial_coeffs(1).b_tilde[1], LaurentPoly({(0, 1): F(1, 3), (-2, 2): -1})
    want = [log_laurent(F(1, 3)), poly(7, 0.5)]
    assert all(x.context is DEFAULT_CONTEXT.mp for x in want)
    for ambient in (20, 200):
        with mp.workprec(ambient):
            got = [log_laurent(F(1, 3)), poly(7, 0.5)]
        assert _bits(got) == _bits(want), ambient
    assert poly(7, F(1, 2)) == F(1, 6) - F(1, 196)  # all-Fraction points stay exact


def _mixed(bits: int) -> list:
    ctx = PrecisionContext(bits=bits)
    return [(relative_entropy_bounds(300, F(k, 23), k % 6 + 1, ctx),
             expected_log_binomial_bounds(50, F(k, 23), k % 5 + 1, ctx),
             entropy_poisson_large(F(k, 3), k % 6 + 1, ctx)) for k in range(1, 23)]


def test_two_threads_share_the_compiled_forms():
    orders = ((64, 256, 64, 256), (256, 64, 256, 64))
    expected = {bits: _mixed(bits) for bits in (64, 256)}
    symbolic.compiled.cache_clear()  # so that both threads compile the same sets
    results: dict[int, list] = {}

    def work(i: int) -> None:
        results[i] = [_mixed(bits) for bits in orders[i]]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, order in enumerate(orders):
        assert results[i] == [expected[bits] for bits in order], f"thread {i}"


def _every_set(bits: int) -> list:
    """One bound from each of the 25 coefficient sets of orders 1..6."""
    ctx = PrecisionContext(bits=bits)
    reports = [entropy_binomial_stirling_m1(50, F(1, 5), ctx)]
    for m in range(1, 7):
        reports += [relative_entropy_bounds(300, F(3, 10), m, ctx),
                    entropy_poisson_large(F(7, 2), m, ctx),
                    expected_log_poisson_bounds(F(7, 2), m, ctx),
                    expected_log_binomial_bounds(50, F(1, 5), m, ctx)]
    return reports


def test_compiled_cache_stays_bounded():
    precisions = range(64, 64 + 40 * 8, 8)
    warm = {bits: _every_set(bits) for bits in precisions}
    info = symbolic.compiled.cache_info()
    assert info.maxsize is not None
    assert info.currsize == info.maxsize  # 40 x 25 forms overfill it, and it holds at its bound
    for bits in precisions:
        symbolic.compiled.cache_clear()
        assert _every_set(bits) == warm[bits], bits


def test_one_off_polynomials_leave_the_compiled_forms_alone():
    symbolic.compiled.cache_clear()
    warm = _every_set(128)
    before = symbolic.compiled.cache_info()
    x = CTX.mp.mpf(3) / 10
    for k in range(1, 101):  # 200 one-off expressions, none of them a bound's set
        LaurentPoly({-1: k, 0: 1})(x)
        LogLaurent(LaurentPoly({1: k}), F(1, k))(x)
    after = symbolic.compiled.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)
    assert _every_set(128) == warm
    assert symbolic.compiled.cache_info().misses == before.misses  # every set still warm
