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
    BoundReport,
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
from entropy_bounds import coefficients, oracle

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
