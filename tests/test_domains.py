"""Every bound and oracle refuses a point outside its domain with one
message form, ``<name> must be <domain>, got <value>``, pinned here byte for
byte at the points just past each domain edge; and an n or an order m that is
no positive int, bool included, with the message of ``symbolic._check_positive``
(a ``DomainError`` for n, a ``ValueError`` for m); and a moment order or
coefficient index k that is no int, bool included (``symbolic._check_index``),
or lies outside its range."""

from fractions import Fraction as F

import pytest
from mpmath import mpf

from entropy_bounds import (
    DomainError,
    PrecisionContext,
    binomial_central_moment,
    binomial_coeffs,
    binomial_entropy_oracle,
    c_coeff,
    c_tilde_coeff,
    entropy_binomial_bounds,
    entropy_binomial_stirling_m1,
    entropy_poisson_ct,
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
from entropy_bounds.coefficients import expected_log_series

CTX = PrecisionContext(64)
THIRD = "0.33333333333333333333333333333333333333"  # 1/3 at 64 + 64 guard bits


CASES = [
    (entropy_poisson_small, (F(-1, 3),), f"lam must be >= 0, got -{THIRD}"),
    (entropy_poisson_large, (0,), "lam must be > 0, got 0.0"),
    (entropy_poisson_large, (F(-1, 3),), f"lam must be > 0, got -{THIRD}"),
    (entropy_poisson_ct, (F(-1, 3),), f"lam must be >= 0, got -{THIRD}"),
    (relative_entropy_exact, (10, F(-1, 3)), f"p must be in [0,1], got -{THIRD}"),
    (relative_entropy_exact, (10, F(4, 3)), "p must be in [0,1], got 1.3333333333333333333333333333333333333"),
    (relative_entropy_bounds, (10, 0), "p must be in (0,1), got 0.0"),
    (relative_entropy_bounds, (10, 1), "p must be in (0,1), got 1.0"),
    (entropy_binomial_bounds, (10, 0), "p must be in (0,1), got 0.0"),
    (entropy_binomial_bounds, (10, 1), "p must be in (0,1), got 1.0"),
    (entropy_binomial_stirling_m1, (10, 0), "p must be in (0,1), got 0.0"),
    (entropy_binomial_stirling_m1, (10, 1), "p must be in (0,1), got 1.0"),
    (expected_log_poisson_bounds, (0,), "s must be > 0, got 0.0"),
    (expected_log_poisson_bounds, (F(-1, 3),), f"s must be > 0, got -{THIRD}"),
    (expected_log_binomial_bounds, (10, 0), "s must be in (0,1), got 0.0"),
    (expected_log_binomial_bounds, (10, 1), "s must be in (0,1), got 1.0"),
    (poisson_entropy_oracle, (F(-1, 3),), f"lam must be >= 0, got -{THIRD}"),
    (expected_log_poisson, (0,), "s must be > 0, got 0.0"),
    (expected_log_poisson, (F(-1, 3),), f"s must be > 0, got -{THIRD}"),
    (moment_oracle_poisson, (2, 0), "s must be > 0, got 0.0"),
    (moment_oracle_poisson, (2, F(-1, 3)), f"s must be > 0, got -{THIRD}"),
    (binomial_entropy_oracle, (10, F(-1, 3)), f"p must be in [0,1], got -{THIRD}"),
    (binomial_entropy_oracle, (10, F(4, 3)), "p must be in [0,1], got 1.3333333333333333333333333333333333333"),
    (relative_entropy_oracle, (10, F(-1, 3)), f"p must be in [0,1], got -{THIRD}"),
    (relative_entropy_oracle, (10, F(4, 3)), "p must be in [0,1], got 1.3333333333333333333333333333333333333"),
    (expected_log_binomial, (10, 0), "s must be in (0,1), got 0.0"),
    (expected_log_binomial, (10, 1), "s must be in (0,1), got 1.0"),
    # the exact moment oracle checks the Fraction itself, so the point prints as typed
    (moment_oracle_binomial, (2, 10, F(3, 2)), "s must be in (0,1), got 3/2"),
    (moment_oracle_binomial, (2, 10, 0), "s must be in (0,1), got 0"),
]
# n in {0, True} for every n-taking bound and oracle; the two rows of a routine take different
# points so that their ids differ, and True, an int to isinstance, is no count
CASES += [(routine, (*lead, n, point), f"n must be a positive integer, got {n!r}")
          for routine, lead in [
              (relative_entropy_exact, ()), (relative_entropy_bounds, ()),
              (entropy_binomial_bounds, ()), (entropy_binomial_stirling_m1, ()),
              (expected_log_binomial_bounds, ()), (binomial_entropy_oracle, ()),
              (relative_entropy_oracle, ()), (expected_log_binomial, ()),
              (moment_oracle_binomial, (2,))]
          for n, point in [(0, F(3, 10)), (True, F(1, 4))]]


@pytest.mark.parametrize(
    "routine, args, message",
    CASES,
    ids=[f"{r.__name__}-{args[-1]}" for r, args, _ in CASES],
)
def test_domain_message(routine, args, message):
    kwargs = {} if routine is moment_oracle_binomial else {"ctx": CTX}
    with pytest.raises(DomainError) as info:
        routine(*args, **kwargs)
    assert str(info.value) == message


ORDER_TAKING = [
    (entropy_poisson_small, (F(1, 2),)),
    (entropy_poisson_large, (10,)),
    (relative_entropy_bounds, (10, F(3, 10))),
    (entropy_binomial_bounds, (10, F(3, 10))),
    (expected_log_poisson_bounds, (10,)),
    (expected_log_binomial_bounds, (10, F(3, 10))),
]


@pytest.mark.parametrize("m", [0, -1, 2.5, "x", True], ids=repr)
@pytest.mark.parametrize("routine, args", ORDER_TAKING, ids=[r.__name__ for r, _ in ORDER_TAKING])
def test_order_message(routine, args, m):
    with pytest.raises(ValueError) as info:
        routine(*args, m=m, ctx=CTX)
    assert str(info.value) == f"order m must be a positive integer, got {m!r}"


# (routine, its arguments at index k, the name of k in its messages)
INDEX_TAKING = [
    (poisson_central_moment, lambda k: (k,), "moment order"),
    (binomial_central_moment, lambda k: (k,), "moment order"),
    (moment_oracle_poisson, lambda k: (k, 3), "moment order"),
    (moment_oracle_binomial, lambda k: (k, 10, F(1, 3)), "moment order"),
    (c_coeff, lambda k: (k,), "k"),
    (c_tilde_coeff, lambda k: (10, k), "k"),
]


@pytest.mark.parametrize("k", [2.5, 2.0, True], ids=repr)
@pytest.mark.parametrize("routine, args, name", INDEX_TAKING,
                         ids=[r.__name__ for r, _, _ in INDEX_TAKING])
def test_index_message(routine, args, name, k):
    # an index k that is no int, bool included, is refused even where k = 2 is cached
    routine(*args(2))
    with pytest.raises(ValueError) as info:
        routine(*args(k))
    assert str(info.value) == f"{name} must be an integer, got {k!r}"


@pytest.mark.parametrize("n", [10.0, F(10), "10", True], ids=repr)
def test_c_tilde_refuses_a_non_integer_n(n):
    # before its range check, which read True as 1 and raised TypeError for the others
    with pytest.raises(ValueError) as info:
        c_tilde_coeff(n, 2)
    assert str(info.value) == f"n must be an integer, got {n!r}"


@pytest.mark.parametrize("routine, args, message", [
    (poisson_central_moment, (-1,), "moment order must be >= 0, got -1"),
    (binomial_central_moment, (-1,), "moment order must be >= 0, got -1"),
    (moment_oracle_poisson, (-1, 3), "moment order must be >= 0, got -1"),
    (moment_oracle_binomial, (-1, 10, F(1, 3)), "moment order must be >= 0, got -1"),
    (c_coeff, (1,), "k must be >= 2, got 1"),
    (c_tilde_coeff, (10, 1), "need 2 <= k <= n, got k=1, n=10"),
    (c_tilde_coeff, (10, 11), "need 2 <= k <= n, got k=11, n=10"),
], ids=lambda v: getattr(v, "__name__", None))
def test_index_range_message(routine, args, message):
    with pytest.raises(ValueError) as info:
        routine(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("m", [1.0, 2.0, True], ids=repr)
@pytest.mark.parametrize("derive", [poisson_coeffs, binomial_coeffs,
                                    lambda m: expected_log_series("poisson", m)],
                         ids=["poisson_coeffs", "binomial_coeffs", "expected_log_series"])
def test_derivations_refuse_an_order_equal_to_a_cached_int(derive, m):
    derive(int(m))
    with pytest.raises(ValueError) as info:
        derive(m)
    assert str(info.value) == f"order m must be a positive integer, got {m!r}"


def test_order_is_checked_before_the_point():
    with pytest.raises(ValueError, match=r"^order m must be a positive integer, got 0$"):
        relative_entropy_bounds(10, 0, m=0, ctx=CTX)


NAN, INF = mpf("nan"), mpf("inf")


def with_point(x):
    """Each routine whose point is checked by symbolic._point, with its point set to ``x``."""
    return [
        (entropy_poisson_small, (x,)),
        (entropy_poisson_large, (x,)),
        (entropy_poisson_ct, (x,)),
        (expected_log_poisson_bounds, (x,)),
        (poisson_entropy_oracle, (x,)),
        (expected_log_poisson, (x,)),
        (moment_oracle_poisson, (2, x)),
        (relative_entropy_oracle, (10, x)),
    ]


@pytest.mark.parametrize("routine, args", with_point(NAN), ids=lambda v: getattr(v, "__name__", None))
def test_nan_lies_outside_every_domain(routine, args):
    with pytest.raises(DomainError, match="got nan$"):
        routine(*args, ctx=CTX)


@pytest.mark.parametrize("routine, args", with_point(INF), ids=lambda v: getattr(v, "__name__", None))
def test_inf_lies_outside_every_domain(routine, args):
    with pytest.raises(DomainError, match=r"got \+inf$"):
        routine(*args, ctx=CTX)
