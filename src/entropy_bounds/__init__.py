"""Certified bounds for Poisson/binomial entropy and their relative entropy.

Exact rational derivation of all asymptotic-expansion coefficients, interval
evaluation of every published sandwich bound, and independent high-precision
oracles to validate them.

The oracles' names (:mod:`entropy_bounds.oracle`) are read from that module, which is imported
on the first use of one of them, so that a process that never checks a bound never loads it.
"""

from .symbolic import (
    DEFAULT_CONTEXT,
    DomainError,
    LaurentPoly,
    LogLaurent,
    NonIntegrableTailError,
    PrecisionContext,
    PrecisionError,
    as_fraction,
    integrate_tail,
    integrate_to_one,
    rational_str,
)
from .moments import binomial_central_moment, poisson_central_moment
from .coefficients import (
    CoeffSet,
    binomial_coeffs,
    c_coeff,
    c_tilde_coeff,
    poisson_coeffs,
    stirling_m1_constants,
)
from .bounds import (
    BoundReport,
    best_interval,
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

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CoeffSet",
    "DEFAULT_CONTEXT",
    "DomainError",
    "LaurentPoly",
    "LogLaurent",
    "NonIntegrableTailError",
    "PrecisionContext",
    "PrecisionError",
    "TruncationReceipt",
    "as_fraction",
    "best_interval",
    "binomial_central_moment",
    "binomial_coeffs",
    "binomial_entropy_oracle",
    "c_coeff",
    "c_tilde_coeff",
    "entropy_binomial_bounds",
    "entropy_binomial_stirling_m1",
    "entropy_poisson_ct",
    "entropy_poisson_large",
    "entropy_poisson_small",
    "expected_log_binomial",
    "expected_log_binomial_bounds",
    "expected_log_poisson",
    "expected_log_poisson_bounds",
    "integrate_tail",
    "integrate_to_one",
    "moment_oracle_binomial",
    "moment_oracle_poisson",
    "poisson_central_moment",
    "poisson_coeffs",
    "poisson_entropy_oracle",
    "rational_str",
    "relative_entropy_bounds",
    "relative_entropy_exact",
    "relative_entropy_oracle",
    "stirling_m1_constants",
]

# the names read from the oracle module, imported on first use (PEP 562)
_ORACLE_NAMES = frozenset({
    "TruncationReceipt", "binomial_entropy_oracle", "expected_log_binomial",
    "expected_log_poisson", "moment_oracle_binomial", "moment_oracle_poisson",
    "poisson_entropy_oracle", "relative_entropy_oracle",
})


def __getattr__(name: str):
    # looked up in the module at each use, never held here, so a wrapper put on the module runs
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
