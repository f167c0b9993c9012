"""Known misses of the certified bounds, kept as expected failures.

Each case is judged against the oracle at 1024 bits (768 for the
expected-log oracle), and each reason records the miss measured there, in ulps
of |value| * 2^-bits at the case's own bits.
``xfail_strict`` is set for the suite, so a case that starts to pass fails it
until its marker is removed together with the fix; the test then stays,
unmarked, as a regression test.
"""

from fractions import Fraction as F

import pytest
from mpmath import mpf

import entropy_bounds.cli as cli
from entropy_bounds import (
    PrecisionContext,
    binomial_entropy_oracle,
    entropy_poisson_large,
    entropy_poisson_small,
    expected_log_binomial,
    poisson_entropy_oracle,
    relative_entropy_bounds,
    relative_entropy_oracle,
)
from entropy_bounds.symbolic import to_mpf

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
    # the same miss at lam = 10^6, m = 30 (0.33 ulp) stays out: its oracle takes about 12 s
    _miss("poisson-small-1-m200-256", entropy_poisson_small, (1, 200), _poisson_entropy, 256,
          "misses by 0.30 ulp: the gap rounds to 0 and [v, v] is rounded to nearest"),
    _miss("poisson-large-1e5-m20-256", entropy_poisson_large, (10**5, 20), _poisson_entropy, 256,
          "misses by 0.04 ulp: the gap rounds to 0 and [v, v] is rounded to nearest"),
    _miss("relative-1e6-1e-12-m6-256", relative_entropy_bounds, (10**6, F(1, 10**12), 6),
          relative_entropy_oracle, 256,
          "misses by 2.83e3 ulps: q = 1 - p is rounded before the head and the series cancel"),
    _miss("relative-1e6-1e-20-m6-256", relative_entropy_bounds, (10**6, F(1, 10**20), 6),
          relative_entropy_oracle, 256,
          "misses by 4.4e20 ulps: q = 1 - p is rounded before the head and the series cancel"),
])
def test_interval_contains_the_1024_bit_oracle(bound, args, oracle, bits):
    rep = bound(*args, PrecisionContext(bits=bits))
    value = oracle(*args[:-1], TRUTH)
    assert rep.lower <= value <= rep.upper


def test_relative_entropy_oracle_is_accurate_at_its_own_bits():
    p = F(1, 10**20)
    value = relative_entropy_oracle(1000, p, PrecisionContext(bits=64))
    truth = relative_entropy_oracle(1000, p, TRUTH)
    assert abs(value - truth) <= abs(truth) * mpf(2) ** -64


def test_expected_log_binomial_is_accurate_near_one():
    ctx = PrecisionContext(bits=256)
    # 1 - 10^-30 as the 256-bit context holds it, the exact binary input the oracle sees
    man, exp = to_mpf(1 - F(1, 10**30), ctx.mp).man_exp
    s = F(man, 2**-exp)
    value = expected_log_binomial(2, s, ctx)
    truth = expected_log_binomial(2, s, PrecisionContext(bits=768))
    assert abs(value - truth) <= abs(truth) * mpf(2) ** -256


def test_bounds_command_at_tiny_p_gives_a_row(capsys):
    argv = ["bounds", "binomial-entropy", "--n", "1000", "--points", "1e-40",
            "--m", "2", "--bits", "64"]
    assert cli.main(argv) == 0
    header, row = capsys.readouterr().out.splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    value = binomial_entropy_oracle(1000, 1e-40, PrecisionContext(bits=128))
    assert mpf(fields["lower"]) <= value <= mpf(fields["upper"])
