"""Known misses of the certified bounds, kept as expected failures.

Each case is judged against the oracle at 1024 bits (768 for the
expected-log oracle), or against the exact value 0 of the expected log at
n = 1, and each reason records the miss measured there, in ulps of
|value| * 2^-bits at the case's own bits.
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
    expected_log_binomial_bounds,
    poisson_entropy_oracle,
    relative_entropy_bounds,
    relative_entropy_oracle,
)
from entropy_bounds.symbolic import to_mpf

TRUTH = PrecisionContext(bits=1024)


def _poisson_entropy(lam, ctx):
    return poisson_entropy_oracle(lam, ctx)[0]


def _zero(n, s, ctx):
    """E[log(B_{n-1,s} + 1)] at n = 1, where B_{0,s} = 0."""
    assert n == 1
    return 0


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
    # tiny p, where the head and the series cancel about 2 log2(1/p) bits of terms of about 1
    pytest.param(relative_entropy_bounds, (1000, F(1, 10**12), 3), relative_entropy_oracle, 64,
                 id="relative-1000-1e-12-m3-64"),
    pytest.param(relative_entropy_bounds, (1000, F(1, 10**20), 3), relative_entropy_oracle, 64,
                 id="relative-1000-1e-20-m3-64"),
    _miss("relative-10000-0.1-m5-64", relative_entropy_bounds, (10000, F(1, 10), 5),
          relative_entropy_oracle, 64, "misses by 0.45 ulp: ends are rounded to nearest, not outward"),
    # the same miss at lam = 10^6, m = 30 (0.33 ulp) stays out: its oracle takes about 12 s
    _miss("poisson-small-1-m200-256", entropy_poisson_small, (1, 200), _poisson_entropy, 256,
          "misses by 0.30 ulp: the gap rounds to 0 and [v, v] is rounded to nearest"),
    _miss("poisson-large-1e5-m20-256", entropy_poisson_large, (10**5, 20), _poisson_entropy, 256,
          "misses by 0.04 ulp: the gap rounds to 0 and [v, v] is rounded to nearest"),
    # the same at n = 10^6 and 256 bits
    pytest.param(relative_entropy_bounds, (10**6, F(1, 10**12), 6), relative_entropy_oracle, 256,
                 id="relative-1e6-1e-12-m6-256"),
    pytest.param(relative_entropy_bounds, (10**6, F(1, 10**20), 6), relative_entropy_oracle, 256,
                 id="relative-1e6-1e-20-m6-256"),
    _miss("relative-1-0.3-m16-64", relative_entropy_bounds, (1, F(3, 10), 16),
          relative_entropy_oracle, 64, "misses by 3.1e6 ulps, below: at n = 1 the order-16 "
          "series' terms, up to 7e37, cancel about 131 bits, past the guard bits"),
    _miss("expected-log-binomial-1-near-1-m9-64", expected_log_binomial_bounds,
          (1, 1 - F(705954619267101, 2**100), 9), _zero, 64, "upper end -9.4e-38 against a "
          "truth of 0: at n = 1 the series' terms, up to 1e16, cancel about 104 bits, past the "
          "guard bits"),
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
