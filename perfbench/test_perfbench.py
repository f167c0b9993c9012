"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest perfbench -q
"""

import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import entropy_bounds as eb  # noqa: E402
import mpmath  # noqa: E402

import harness as hn  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402


def first(workload, seed, count=400):
    return list(islice(wl.ops(workload, seed), count))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_gives_same_op_list(workload):
    assert first(workload, 3) == first(workload, 3)
    assert first(workload, 3) != first(workload, 4)


def test_tabulate_covers_routines_orders_and_precisions():
    ops = first("tabulate", 1, 200)
    assert {op[1] for op in ops[:8]} == set(wl.TABULATE_ROUTINES)
    assert {op[4] for op in ops} == {64, 128, 256}
    assert {op[3] for op in ops} == {None, "auto", 1, 2, 3, 4, 5, 6}
    ns = [op[2][0] for op in ops if op[1] not in wl.POISSON_ROUTINES]
    lams = [op[2][0] for op in ops if op[1] in wl.POISSON_ROUTINES]
    assert min(ns) < 20 and max(ns) > 10000
    assert min(lams) < Fraction(1, 20) and max(lams) > 5000


def test_cross_check_covers_every_target_at_every_precision():
    ops = first("cross-check", 1, 15)
    assert {(op[1], op[3]) for op in ops} == {
        (t, b) for t in wl.CROSS_CHECK_TARGETS for b in wl.CROSS_CHECK_BITS
    }


def test_derive_cold_covers_every_request_and_precision():
    ops = wl.derive_cold_ops(1)
    kinds = {op[0] for op in ops}
    assert kinds == {"relative_entropy_exact", "poisson_coeffs", "binomial_coeffs", "c_coeff"}
    exact = [op for op in ops if op[0] == "relative_entropy_exact"]
    assert {op[3] for op in exact} == set(wl.DERIVE_BITS)
    assert {op[1] for op in exact} == set(range(11, 161))
    assert {op[1] for op in ops if op[0] == "poisson_coeffs"} == set(range(1, 11))
    assert {(op[1], op[2]) for op in ops if op[0] == "c_coeff"} == {
        (k, b) for k in range(2, 33) for b in wl.DERIVE_BITS
    }
    # every block carries the same share of coefficient requests, and the
    # first blocks already reach the highest order and the largest k
    per_block = [sum(op[0] != "relative_entropy_exact" for op in ops[i:i + 38])
                 for i in range(0, 14 * 38, 38)]
    assert set(per_block) == {8}
    early = ops[:2 * 38]
    assert max(op[1] for op in early if op[0].endswith("_coeffs")) >= 9
    assert max(op[1] for op in early if op[0] == "c_coeff") >= 30


@pytest.mark.parametrize("seed", [1, 2, 2010])
def test_every_derive_cold_key_is_fresh(seed):
    # the key of an exact-D request is (n, bits); p is not part of it
    keys = [op[:2] + op[3:] if op[0] == "relative_entropy_exact" else op
            for op in wl.derive_cold_ops(seed)]
    assert len(keys) == len(set(keys))


def test_cli_cold_covers_every_subcommand():
    ops = first("cli-cold", 1, 200)
    assert {op[1][0] for op in ops[:4]} == set(wl.CLI_COMMANDS)
    assert {op[1][1] for op in ops if op[1][0] == "coeffs"} == {"poisson", "binomial", "small-lambda"}
    assert {op[1][1] for op in ops if op[1][0] in ("bounds", "verify")} == {
        "poisson-entropy", "relative-entropy", "binomial-entropy"
    }
    assert {op[1][1] for op in ops if op[1][0] == "figure"} == {"gaps", "bounds"}


def test_enclosure_check_rejects_a_one_ulp_shift():
    ctx = eb.PrecisionContext(bits=64 + wl.ORACLE_GUARD_BITS)
    value = eb.relative_entropy_oracle(50, Fraction(1, 5), ctx)
    point = eb.PrecisionContext(bits=64).round(value)  # as a 64-bit bound reports it
    with mpmath.workprec(256):  # the shifted ends are exact here
        ulp = mpmath.ldexp(1, mpmath.mag(point) - 64)
        below, above = point - ulp, point + ulp
        far_below, far_above = point - 2 * ulp, point + 2 * ulp
    assert hn.enclosure_error("exact", value, value, value, 64) is None
    assert hn.enclosure_error("wide", below, above, value, 64) is None
    assert hn.enclosure_error("up", above, far_above, value, 64) is not None
    assert hn.enclosure_error("down", far_below, below, value, 64) is not None
    assert hn.enclosure_error("upper only", None, below, value, 64) is not None


def test_round_to_nearest_miss_is_counted_but_not_failed():
    ctx = eb.PrecisionContext(bits=64 + wl.ORACLE_GUARD_BITS)
    value = eb.relative_entropy_oracle(50, Fraction(1, 5), ctx)
    point = eb.PrecisionContext(bits=64).round(value)
    assert point != value
    runner = hn.Harness(eb, "cross-check", 1)
    # a zero-width interval rounded to nearest misses by under half an ulp
    assert runner.judge("point", point, point, value, 64) is None
    assert runner.rounding_misses == 1
    assert runner.judge("wide", value, value, value, 64) is None
    assert runner.rounding_misses == 1
    # the same interval judged at 128 bits has no such slack
    assert runner.judge("point", point, point, value, 128) is not None
    assert runner.rounding_misses == 1


def test_cli_check_rejects_nonzero_exit_and_wrong_values():
    runner = hn.Harness(eb, "cli-cold", 1)
    argv = ("coeffs", "poisson", "--m", "2")
    code, out, err = hn.run_cli(argv, hn.cli_env())
    assert runner.check_cli(argv, code, out, err) is None
    assert runner.check_cli(argv, 1, out, "boom") is not None
    assert runner.check_cli(argv, 0, "not json", "") is not None
    assert runner.check_cli(argv, 0, out.replace('"5/24"', '"5/23"'), "") is not None


def test_percentile_uses_every_sample():
    summary = run.latency_summary([i / 1000 for i in range(1, 101)])
    assert summary["count"] == 100
    assert summary["p50"] == pytest.approx(50)
    assert summary["p90"] == pytest.approx(90)
    assert summary["beyond_p90"] == 10
    assert run.latency_summary([i / 1000 for i in range(1, 102)])["count"] == 101
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_tracer_opens_child_spans_and_restores_the_package():
    original = eb.bounds.coefficients.poisson_coeffs
    tracer = Tracer()
    tracer.install()
    try:
        eb.entropy_poisson_large(Fraction(10), 2)
    finally:
        tracer.uninstall()
    assert eb.bounds.coefficients.poisson_coeffs is original
    spans = tracer.spans()
    top = [i for i, s in enumerate(spans) if s[0] == "bounds.entropy_poisson_large"]
    assert len(top) == 1 and spans[top[0]][3] == -1
    assert any(s[0] == "coefficients.poisson_coeffs" and s[3] == top[0] for s in spans)
    assert tracer.calls["bounds"] == 1 and tracer.calls["coefficients"] == 1
    assert tracer.self_s["bounds"] > 0
