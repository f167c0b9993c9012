"""Known misses of the certified bounds, kept as expected failures.

Each case is judged against the oracle at 1024 bits, and each reason records
the miss measured there, in ulps of |value| * 2^-bits at the case's own bits.
``xfail_strict`` is set for the suite, so a case that starts to pass fails it
until its marker is removed together with the fix.
"""

from fractions import Fraction as F

import pytest
from mpmath import mpf

import entropy_bounds.cli as cli
from entropy_bounds import (
    PrecisionContext,
    entropy_poisson_small,
    poisson_entropy_oracle,
    relative_entropy_bounds,
    relative_entropy_oracle,
)

TRUTH = PrecisionContext(bits=1024)


def _poisson_entropy(lam, ctx):
    return poisson_entropy_oracle(lam, ctx)[0]


def _miss(name, bound, args, oracle, bits, reason):
    return pytest.param(bound, args, oracle, bits, id=name,
                        marks=pytest.mark.xfail(raises=AssertionError, reason=reason))


@pytest.mark.parametrize("bound, args, oracle, bits", [
    _miss("poisson-small-30-m120-256", entropy_poisson_small, (30, 120), _poisson_entropy, 256,
          "misses by 1.08e9 ulps: c(k) is rounded before a sum that cancels ~40 bits"),
    _miss("poisson-small-10-m30-64", entropy_poisson_small, (10, 30), _poisson_entropy, 64,
          "misses by 75.9 ulps: c(k) is rounded before a cancelling sum"),
    _miss("poisson-small-1e-10-m2-64", entropy_poisson_small, (F(1, 10**10), 2),
          _poisson_entropy, 64, "misses by 0.70 ulp: ends are rounded to nearest, not outward"),
    _miss("relative-1000-1e-12-m3-64", relative_entropy_bounds, (1000, F(1, 10**12), 3),
          relative_entropy_oracle, 64, "misses by 4.7e4 ulps: terms of about 100 cancel at q near 1"),
    _miss("relative-1000-1e-20-m3-64", relative_entropy_bounds, (1000, F(1, 10**20), 3),
          relative_entropy_oracle, 64,
          "lower end 5.64e-40 against a truth of 2.50e-41: cancellation at q near 1"),
    _miss("relative-10000-0.1-m5-64", relative_entropy_bounds, (10000, F(1, 10), 5),
          relative_entropy_oracle, 64, "misses by 0.45 ulp: ends are rounded to nearest, not outward"),
])
def test_interval_contains_the_1024_bit_oracle(bound, args, oracle, bits):
    rep = bound(*args, PrecisionContext(bits=bits))
    value = oracle(*args[:-1], TRUTH)
    assert rep.lower <= value <= rep.upper


@pytest.mark.xfail(raises=AssertionError,
                   reason="returns -1.08e-36 where the truth is 2.50e-41: the sum cancels at 64 bits")
def test_relative_entropy_oracle_is_accurate_at_its_own_bits():
    p = F(1, 10**20)
    value = relative_entropy_oracle(1000, p, PrecisionContext(bits=64))
    truth = relative_entropy_oracle(1000, p, TRUTH)
    assert abs(value - truth) <= abs(truth) * mpf(2) ** -64


@pytest.mark.xfail(raises=ValueError, reason="ValueError: empty interval, raised with a traceback")
def test_bounds_command_at_tiny_p_gives_a_row(capsys):
    argv = ["bounds", "binomial-entropy", "--n", "1000", "--points", "1e-40",
            "--m", "2", "--bits", "64"]
    assert cli.main(argv) == 0
