"""Oracle-free consistency: two certified answers to one question must intersect.

The library answers some questions more than once: H(lam) by the large-mean and small-mean
sandwiches at every order and the classical upper bound; H(B_{n,p}) by the corollary at every
order and the order-1 Stirling form; D(n, p) by its exact formula and its sandwich at every
order; each expected log by its sandwich at every order.  If two answers to one question are
disjoint, at least one of them is wrong, and no oracle is needed to show it, so the seeded
points below reach arguments no oracle walks in reasonable time.
"""

import random
from fractions import Fraction as F

import pytest
from mpmath.libmp import to_rational

from entropy_bounds import (
    PrecisionContext,
    PrecisionError,
    entropy_binomial_bounds,
    entropy_binomial_stirling_m1,
    entropy_poisson_ct,
    entropy_poisson_large,
    entropy_poisson_small,
    expected_log_binomial_bounds,
    expected_log_poisson_bounds,
    relative_entropy_bounds,
    relative_entropy_exact,
)

BITS = (64, 128, 256)
ORDERS = (1, 2, 3, 4, 5, 6, "auto")


def _exact(x) -> F:
    return F(*to_rational(x._mpf_))


def _ends(rep) -> tuple[F, F]:
    return _exact(rep.lower), _exact(rep.upper)


def _log_uniform(rng: random.Random, lo: int, hi: int) -> F:
    """A rational 10^u with u uniform in [lo, hi], to three significant digits."""
    u = rng.uniform(lo, hi)
    e = int(u // 1)
    return F(round(10 ** (u - e + 2)), 100) * F(10) ** e


def _p(rng: random.Random) -> F:
    """A p in (0, 1), log-uniform down to about 2^-130, and near 1 three times in ten."""
    p = F(rng.randint(1, 2**20 - 1), 2**20) * F(1, 2 ** rng.randint(0, 110))
    return 1 - p if rng.random() < 0.3 else p


def _cover_thomas(rng):
    # the classical upper bound meets the sandwich when it is at or above the lower end
    lam, m, bits = _log_uniform(rng, -1, 30), rng.choice(ORDERS), rng.choice(BITS)
    ctx = PrecisionContext(bits)
    lower, upper = _ends(entropy_poisson_large(lam, m, ctx))
    return (lam, m, bits), (lower, upper), (lower, _exact(entropy_poisson_ct(lam, ctx)))


def _corollary_stirling(rng):
    n, p, m, bits = int(_log_uniform(rng, 0, 9)), _p(rng), rng.choice(ORDERS), rng.choice(BITS)
    ctx = PrecisionContext(bits)
    return (n, p, m, bits), _ends(entropy_binomial_bounds(n, p, m, ctx)), _ends(
        entropy_binomial_stirling_m1(n, p, ctx))


def _small_large(rng):
    lam, bits = _log_uniform(rng, -3, 1.3), rng.choice(BITS)  # lam <= 20
    j, k = rng.choice(ORDERS), rng.choice(ORDERS)
    ctx = PrecisionContext(bits)
    return (lam, j, k, bits), _ends(entropy_poisson_small(lam, j, ctx)), _ends(
        entropy_poisson_large(lam, k, ctx))


def _tiny_p(rng: random.Random) -> F:
    """A p in (0, 1), log-uniform down to about 2^-400, never dyadic: 2^20 - 1 is odd."""
    return F(rng.randint(1, 2**20 - 2), 2**20 - 1) * F(1, 2 ** rng.randint(0, 380))


def _relative_exact(n_top, draw_p, bits_from):
    """Exact D against the sandwich, n log-uniform to 10^n_top, p drawn by ``draw_p`` and the
    precision from ``bits_from``; exact D is within half an ulp plus 2^-62 ulp, so one ulp
    either side encloses it."""
    def pair(rng):
        n, p, m = int(_log_uniform(rng, 0, n_top)), draw_p(rng), rng.choice(ORDERS)
        bits = rng.choice(bits_from)
        ctx = PrecisionContext(bits)
        value = relative_entropy_exact(n, p, ctx)
        man, exp = value.man_exp
        ulp = F(2) ** (exp + man.bit_length() - bits)
        return (n, p, m, bits), _ends(relative_entropy_bounds(n, p, m, ctx)), (
            _exact(value) - ulp, _exact(value) + ulp)
    return pair


def _orders(bound, point):
    """Two orders of one sandwich: ``point(rng)`` draws the arguments before m."""
    def pair(rng):
        args, bits = point(rng), rng.choice(BITS)
        ctx = PrecisionContext(bits)
        j, k = rng.sample(ORDERS, 2)
        return (*args, j, k, bits), _ends(bound(*args, j, ctx)), _ends(bound(*args, k, ctx))
    return pair


_large_orders = _orders(entropy_poisson_large, lambda rng: (_log_uniform(rng, -1, 30),))
_small_orders = _orders(entropy_poisson_small, lambda rng: (_log_uniform(rng, -3, 1.3),))
_corollary_orders = _orders(entropy_binomial_bounds,
                            lambda rng: (int(_log_uniform(rng, 0, 9)), _p(rng)))
_expected_log_poisson_orders = _orders(expected_log_poisson_bounds,
                                       lambda rng: (_log_uniform(rng, -1, 30),))
_expected_log_binomial_orders = _orders(expected_log_binomial_bounds,
                                        lambda rng: (int(_log_uniform(rng, 0, 9)), _p(rng)))
_relative_orders = _orders(relative_entropy_bounds,
                           lambda rng: (int(_log_uniform(rng, 0, 6)), _p(rng)))


@pytest.mark.parametrize("pair, count", [
    pytest.param(_large_orders, 80, id="large-mean-orders"),
    pytest.param(_cover_thomas, 60, id="cover-thomas-above-large-mean"),
    pytest.param(_corollary_stirling, 60, id="corollary-stirling"),
    pytest.param(_small_large, 60, id="small-mean-large-mean"),
    pytest.param(_small_orders, 60, id="small-mean-orders"),
    pytest.param(_corollary_orders, 60, id="corollary-orders"),
    pytest.param(_expected_log_poisson_orders, 60, id="expected-log-poisson-orders"),
    pytest.param(_expected_log_binomial_orders, 60, id="expected-log-binomial-orders"),
    # at small p the sandwich's head and series cancel about 2 log2(1/p) bits, up to about 800
    # at p = 2^-400
    pytest.param(_relative_orders, 60, id="relative-entropy-orders"),
    pytest.param(_relative_exact(3.5, _p, BITS), 60, id="relative-exact-bounds"),
    # n to 10^6, p to about 2^-400, 64-320 bits
    pytest.param(_relative_exact(6, _tiny_p, (64, 128, 192, 256, 320)), 60,
                 id="relative-exact-tiny-p"),
])
def test_two_certified_answers_intersect(pair, count):
    rng = random.Random(27)
    disjoint = []
    for _ in range(count):
        try:
            point, (a, b), (c, d) = pair(rng)
        except PrecisionError as exc:  # crossing ends are no answer at all
            disjoint.append(str(exc))
            continue
        if max(a, c) > min(b, d):
            disjoint.append(point)
    assert not disjoint, f"{len(disjoint)} of {count} disjoint, first {disjoint[0]}"
