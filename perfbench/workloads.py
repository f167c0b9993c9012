"""Seeded workloads: the op list of each workload.

Every workload is a closed loop with one caller: the next op is sent only
after the previous one returned.  An op is a plain tuple of ints,
``Fraction``s and strings, so the same seed always yields the same op list
and the program receives only generated inputs.

Continuous inputs come from a seeded, rotated Kronecker sequence rather
than from independent draws: every prefix of the op list then covers the
input ranges evenly, so how much work a run of fixed length does depends
on the program, not on the seed.  Categorical inputs (routine, target,
precision) are cycled in blocks, each block shuffled by the seed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("tabulate", "cross-check", "derive-cold", "cli-cold")

ORACLE_GUARD_BITS = 64  # oracles run this many bits above the bound they judge
CROSS_CHECK_ORDERS = range(1, 6)
TABULATE_CHECKS_PER_ROUTINE = 2
TABULATE_SAMPLED_PREFIX = 2000  # oracle-checked tabulate ops come from this prefix
# relative_entropy_exact sums cancelling terms that are each rounded to the
# working precision, so it is not correctly rounded (about 100 ulps off at
# n = 160); it must still agree with the oracle to bits - 12 bits.
EXACT_D_SLACK_BITS = 12

_ALPHAS = tuple(math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13))


class Spread:
    """Points of [0, 1)^dims that fill the cube evenly for every prefix length."""

    def __init__(self, rng: random.Random, dims: int) -> None:
        self._x = [rng.random() for _ in range(dims)]
        self._alpha = _ALPHAS[:dims]

    def next(self) -> list[float]:
        self._x = [(x + a) % 1.0 for x, a in zip(self._x, self._alpha)]
        return self._x


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _rational(u: float, lo: float, hi: float, den: int = 1000) -> Fraction:
    return Fraction(max(round(_log_uniform(u, lo, hi) * den), 1), den)


def _count(u: float, lo: int, hi: int) -> int:
    return max(lo, min(hi, round(_log_uniform(u, lo, hi))))


def _grid_p(u: float) -> Fraction:
    return Fraction(1 + int(u * 99), 100)


def _pick(u: float, options):
    return options[int(u * len(options))]


def _decimal(x: Fraction) -> str:
    """Exact decimal text of a rational whose denominator divides 1000."""
    thousandths = x * 1000
    assert thousandths.denominator == 1
    whole, frac = divmod(int(thousandths), 1000)
    return f"{whole}.{frac:03d}".rstrip("0").rstrip(".")


# --- tabulate ---------------------------------------------------------------

TABULATE_ROUTINES = (
    "poisson-small",
    "poisson-large",
    "poisson-ct",
    "relative-entropy",
    "binomial-corollary",
    "binomial-stirling",
    "expected-log-poisson",
    "expected-log-binomial",
)
POISSON_ROUTINES = ("poisson-small", "poisson-large", "poisson-ct", "expected-log-poisson")
NO_ORDER_ROUTINES = ("poisson-ct", "binomial-stirling")


def tabulate_ops(seed: int):
    """("tabulate", routine, params, m, bits), m an order, "auto" or None."""
    rng = random.Random(f"tabulate:{seed}")
    spreads = {r: Spread(rng, 5) for r in TABULATE_ROUTINES}
    while True:
        block = list(TABULATE_ROUTINES)
        rng.shuffle(block)
        for routine in block:
            u = spreads[routine].next()
            if routine in POISSON_ROUTINES:
                params = (_rational(u[0], 0.01, 1e4),)
            else:
                params = (_count(u[0], 10, 20000), _grid_p(u[1]))
            if routine in NO_ORDER_ROUTINES:
                m = None
            else:
                m = "auto" if u[4] < 0.1 else 1 + int(u[2] * 6)
            bits = 64 if u[3] < 0.1 else 128 if u[3] < 0.2 else 256
            yield ("tabulate", routine, params, m, bits)


# --- cross-check ------------------------------------------------------------

CROSS_CHECK_TARGETS = (
    "poisson-entropy",
    "relative-entropy",
    "binomial-entropy",
    "expected-log-poisson",
    "expected-log-binomial",
)
CROSS_CHECK_BITS = (64, 128, 256)


def cross_check_ops(seed: int):
    """("cross-check", target, params, bits)."""
    rng = random.Random(f"cross-check:{seed}")
    cells = [(t, b) for t in CROSS_CHECK_TARGETS for b in CROSS_CHECK_BITS]
    spreads = {cell: Spread(rng, 2) for cell in cells}
    while True:
        block = list(cells)
        rng.shuffle(block)
        for target, bits in block:
            u = spreads[target, bits].next()
            if target in ("poisson-entropy", "expected-log-poisson"):
                params = (_rational(u[0], 0.1, 3000),)
            else:
                params = (_count(u[0], 10, 3000), _grid_p(u[1]))
            yield ("cross-check", target, params, bits)


# --- derive-cold ------------------------------------------------------------

DERIVE_BITS = (64, 128, 256)
DERIVE_N_STRATA = tuple(range(11, 161, 15))  # ten strata of fifteen n values
DERIVE_STRATUM_ORDER = (0, 5, 2, 7, 4, 9, 1, 6, 3, 8)  # cheap and dear strata alternate
DERIVE_MAX_ORDER = 10
DERIVE_MAX_K = 32
DERIVE_BLOCKS = 15  # the fifteen n values of a stratum, one per block
# the order in which a stratum's n values are used: every prefix of even
# length is centred on the stratum, so the mix of a run does not hinge on
# which n values it drew; each seed mirrors it or not, per stratum and bits
DERIVE_N_ORDER = (7, 0, 14, 3, 11, 5, 9, 1, 13, 4, 10, 2, 12, 6, 8)


def _bit_reversed(i: int) -> float:
    """Base-2 van der Corput value of i: successive values fill [0, 1) evenly."""
    x, scale = 0.0, 0.5
    while i:
        x += scale * (i & 1)
        i >>= 1
        scale /= 2
    return x


def _coefficient_requests() -> list[tuple]:
    """Every coefficient request once, ordered so that each prefix reaches
    across all orders and all k."""
    orders = [(kind, m) for m in range(1, DERIVE_MAX_ORDER + 1)
              for kind in ("poisson_coeffs", "binomial_coeffs")]
    cs = [("c_coeff", k, bits) for k in range(2, DERIVE_MAX_K + 1) for bits in DERIVE_BITS]
    placed = [((i + 0.5) / len(orders), op) for i, op in enumerate(orders)]
    placed += [((i + 0.5) / len(cs), op) for i, op in enumerate(cs)]
    ascending = [op for _, op in sorted(placed, key=lambda item: item[0])]
    order = sorted(range(len(ascending)), key=_bit_reversed)
    return [ascending[i] for i in order]


def derive_cold_ops(seed: int):
    """Finite list of requests whose keys the process has never seen.

    ("relative_entropy_exact", n, p, bits) once per (n, bits) pair, and
    ("poisson_coeffs", m), ("binomial_coeffs", m), ("c_coeff", k, bits) once
    each.  Each block asks for one fresh n from every stratum at every
    precision plus the same number of coefficient requests, so every block
    costs about the same and a run's mix does not depend on its length.
    """
    rng = random.Random(f"derive-cold:{seed}")
    fresh = {}
    for lo in DERIVE_N_STRATA:
        for bits in DERIVE_BITS:
            mirror = rng.random() < 0.5
            fresh[lo, bits] = [lo + (DERIVE_BLOCKS - 1 - i if mirror else i) for i in DERIVE_N_ORDER]
    p_spread = Spread(rng, 1)
    coeff_ops = _coefficient_requests()
    per_block = -(-len(coeff_ops) // DERIVE_BLOCKS)
    ops = []
    for block in range(DERIVE_BLOCKS):
        exact = []
        for stratum in DERIVE_STRATUM_ORDER:
            for bits in DERIVE_BITS:
                n = fresh[DERIVE_N_STRATA[stratum], bits][block]
                exact.append(("relative_entropy_exact", n, _grid_p(p_spread.next()[0]), bits))
        coeffs = coeff_ops[block * per_block:(block + 1) * per_block]
        # interleave the coefficient requests evenly between the exact ones
        placed = [((i + 0.5) / len(exact), op) for i, op in enumerate(exact)]
        placed += [((i + 0.25) / len(coeffs), op) for i, op in enumerate(coeffs)]
        ops.extend(op for _, op in sorted(placed, key=lambda item: item[0]))
    return ops


# --- cli-cold ---------------------------------------------------------------

CLI_COMMANDS = ("coeffs", "bounds", "verify", "figure")


def _cli_coeffs(u) -> list[str]:
    kind = _pick(u[0], ("poisson", "binomial", "small-lambda"))
    if kind == "poisson":
        return ["coeffs", kind, "--m", str(1 + int(u[1] * 6))]
    if kind == "binomial":
        return ["coeffs", kind, "--m", str(1 + int(u[1] * 4))]
    return ["coeffs", kind, "--kmax", str(4 + int(u[1] * 9)),
            "--bits", str(_pick(u[2], (64, 128, 256)))]


def _cli_bounds(u) -> list[str]:
    variant = _pick(u[0], ("large-lambda", "small-lambda", "cover-thomas",
                           "relative-entropy", "corollary", "stirling-m1"))
    order = "auto" if u[3] < 0.15 else str(1 + int(u[2] * 4))
    if variant in ("large-lambda", "small-lambda", "cover-thomas"):
        lam = _rational(u[1], 0.5, 500)
        points = f"{_decimal(lam)},{_decimal(2 * lam)}"
        argv = ["bounds", "poisson-entropy", "--method", variant, "--points", points]
    else:
        n = _count(u[1], 20, 2000)
        p = _grid_p(u[2])
        argv = ["bounds", "relative-entropy" if variant == "relative-entropy" else "binomial-entropy",
                "--n", str(n), "--points", f"{_decimal(p)},{_decimal(1 - p)}"]
        if variant != "relative-entropy":
            argv += ["--method", variant]
    if variant not in ("cover-thomas", "stirling-m1"):
        argv += ["--m", order]
    if u[4] < 0.3:
        argv += ["--format", "json"]
    return argv


def _cli_verify(u) -> list[str]:
    target = _pick(u[0], ("poisson-entropy", "relative-entropy", "binomial-entropy"))
    if target == "poisson-entropy":
        return ["verify", target, "--points", _decimal(_rational(u[1], 0.5, 100)),
                "--m-list", "1,2,3"]
    argv = ["verify", target, "--n", str(_count(u[1], 10, 200)),
            "--points", _decimal(_grid_p(u[2]))]
    if target == "binomial-entropy" and u[3] < 0.5:
        return argv + ["--method", "stirling-m1"]
    return argv + ["--m-list", "1,2,3"]


def _cli_figure(u) -> list[str]:
    start = 2 + int(u[0] * 48)
    step = _pick(u[1], ("1/2", "1", "2"))
    stop = start + 3 * Fraction(step)
    return ["figure", _pick(u[2], ("gaps", "bounds")),
            "--grid", f"{start}:{_decimal(stop)}:{step}", "--m-list", "1,2,3"]


_CLI_BUILDERS = {"coeffs": _cli_coeffs, "bounds": _cli_bounds,
                 "verify": _cli_verify, "figure": _cli_figure}


def cli_cold_ops(seed: int):
    """("cli-cold", argv) for one ``python -m entropy_bounds.cli`` run."""
    rng = random.Random(f"cli-cold:{seed}")
    spreads = {c: Spread(rng, 5) for c in CLI_COMMANDS}
    while True:
        block = list(CLI_COMMANDS)
        rng.shuffle(block)
        for command in block:
            yield ("cli-cold", tuple(_CLI_BUILDERS[command](spreads[command].next())))


def ops(workload: str, seed: int):
    """Iterator over the op list of a workload."""
    if workload == "tabulate":
        return tabulate_ops(seed)
    if workload == "cross-check":
        return cross_check_ops(seed)
    if workload == "derive-cold":
        return iter(derive_cold_ops(seed))
    if workload == "cli-cold":
        return cli_cold_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")
