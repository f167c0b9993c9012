"""CLI behaviour: exports, grids, verification exit codes, determinism."""

import contextlib
import csv
import hashlib
import inspect
import io
import json
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from mpmath import mp, mpf

import entropy_bounds.cli as cli
from conftest import child_env
from entropy_bounds import (
    CoeffSet,
    DEFAULT_CONTEXT,
    binomial_coeffs,
    poisson_coeffs,
    relative_entropy_oracle,
)
from golden_data import FIGURE_GAPS

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def rows_of(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestCoeffsCommand:
    def test_poisson_m2_json(self, capsys):
        code, out = run(capsys, ["coeffs", "poisson", "--m", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["b"] == {"1": "-1/12", "2": "5/24", "3": "1/60"}

    def test_poisson_m1_json(self, capsys):
        code, out = run(capsys, ["coeffs", "poisson", "--m", "1"])
        assert json.loads(out)["a"] == {"1": "1/1", "2": "1/6"}

    def test_small_lambda_values(self, capsys):
        code, out = run(capsys, ["coeffs", "small-lambda", "--kmax", "3", "--bits", "128"])
        payload = json.loads(out)
        assert payload["bits"] == 128
        assert payload["c"]["2"].startswith("0.693147180559945")
        assert payload["c"]["3"].startswith("-0.287682072451780")

    def test_poisson_roundtrip(self, capsys):
        _, out = run(capsys, ["coeffs", "poisson", "--m", "3"])
        payload, cs = json.loads(out), poisson_coeffs(3)
        assert payload["m"] == cs.m
        for key, coeffs in (("a", cs.a), ("b", cs.b)):
            assert {int(k): F(v) for k, v in payload[key].items()} == coeffs

    def test_binomial_roundtrip(self, capsys):
        _, out = run(capsys, ["coeffs", "binomial", "--m", "2"])
        payload, cs = json.loads(out), binomial_coeffs(2)
        assert payload["m"] == cs.m
        for key, functions in (("a", cs.a_tilde), ("b", cs.b_tilde)):
            parsed = {int(k): ({int(e): F(c) for e, c in f["terms"].items()}, F(f["log"]))
                      for k, f in payload[key].items()}
            assert parsed == {k: (dict(f.laurent.terms()), f.log_coeff)
                              for k, f in functions.items()}

    def test_missing_order_is_usage_error(self, capsys):
        code, _ = run(capsys, ["coeffs", "poisson"])
        assert code == 2


class TestBoundsCommand:
    def test_gap_column_decreases_over_grid(self, capsys):
        code, out = run(
            capsys,
            ["bounds", "poisson-entropy", "--grid", "10:20:1", "--m", "3", "--bits", "128"],
        )
        assert code == 0
        rows = rows_of(out)
        gaps = [float(r["gap"]) for r in rows]
        assert len(gaps) == 11
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
        assert abs(gaps[0] / 0.0068 - 1) < 0.1
        assert abs(gaps[-1] / 0.00074 - 1) < 0.1

    def test_relative_entropy_contains_oracle(self, capsys):
        code, out = run(
            capsys,
            ["bounds", "relative-entropy", "--n", "100", "--points", "0.2", "--m", "2"],
        )
        row = rows_of(out)[0]
        with mp.workprec(300):
            value = relative_entropy_oracle(100, F(1, 5))
            assert mpf(row["lower"]) <= value <= mpf(row["upper"])

    def test_domain_error_row_is_flagged(self, capsys):
        code, out = run(
            capsys,
            ["bounds", "poisson-entropy", "--points", "0,10",
             "--method", "large-lambda", "--bits", "128"],
        )
        assert code == 0
        rows = rows_of(out)
        assert rows[0]["error"] != "" and rows[0]["lower"] == ""
        assert rows[1]["error"] == "" and rows[1]["lower"] != ""

    def test_all_rows_failing_is_an_error(self, capsys):
        code, _ = run(
            capsys,
            ["bounds", "poisson-entropy", "--points", "0", "--method", "large-lambda"],
        )
        assert code == 2

    def test_cover_thomas_rows(self, capsys):
        code, out = run(
            capsys,
            ["bounds", "poisson-entropy", "--points", "10",
             "--method", "cover-thomas", "--bits", "128"],
        )
        row = rows_of(out)[0]
        assert row["lower"] == "" and float(row["upper"]) > 2.56

    def test_auto_order_picks_narrowest(self, capsys):
        _, out = run(
            capsys,
            ["bounds", "poisson-entropy", "--points", "10", "--m", "auto", "--bits", "128"],
        )
        row = rows_of(out)[0]
        gaps = {}
        for m in range(1, 7):
            _, one = run(
                capsys,
                ["bounds", "poisson-entropy", "--points", "10", "--m", str(m), "--bits", "128"],
            )
            gaps[m] = float(rows_of(one)[0]["gap"])
        assert int(row["m"]) == min(gaps, key=gaps.get)

    def test_json_format(self, capsys):
        _, out = run(
            capsys,
            ["bounds", "poisson-entropy", "--points", "10", "--format", "json", "--bits", "128"],
        )
        payload = json.loads(out)
        assert payload[0]["method"] == "large-lambda"

    @pytest.mark.parametrize("argv, method", [
        (["binomial-entropy", "--method", "stirling-m1"], "stirling-m1"),
        (["relative-entropy"], "relative-entropy"),
    ])
    def test_error_and_good_rows_name_one_method(self, capsys, argv, method):
        # p = 0 is an error row and p = 0.5 a good one
        code, out = run(capsys, ["bounds", *argv, "--n", "10", "--points", "0,0.5"])
        assert code == 0
        rows = rows_of(out)
        assert rows[0]["error"] != "" and rows[1]["error"] == ""
        assert [row["method"] for row in rows] == [method, method]

    def test_crossing_ends_give_an_error_row(self, capsys):
        # at q = 1 - 1e-20 the order-2 gap form cancels below zero at 64 bits, so the
        # rounded ends of the first point cross; the second point still gets its row
        argv = ["bounds", "relative-entropy", "--n", "1000", "--points", "1e-20,0.5",
                "--bits", "64", "--m", "2"]
        code, out = run(capsys, argv)
        assert code == 0
        crossed, good = rows_of(out)
        assert crossed["lower"] == "" and crossed["m"] == "2"
        assert crossed["error"] == "the ends of the order-2 relative-entropy bound cross at 64 bits"
        assert good["error"] == "" and mpf(good["lower"]) <= mpf(good["upper"])

    def test_missing_n_is_usage_error(self, capsys):
        code, _ = run(capsys, ["bounds", "binomial-entropy", "--points", "0.5"])
        assert code == 2

    def test_bad_grid_is_usage_error(self, capsys):
        code, _ = run(capsys, ["bounds", "poisson-entropy", "--grid", "20:10:1"])
        assert code == 2


class TestVerifyCommand:
    def test_default_poisson_grid_all_contained(self, capsys):
        code, out = run(capsys, ["verify", "poisson-entropy", "--m-list", "1,2,3,4,5"])
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 45
        assert all(r["contained"] == "true" for r in rows)
        assert all(float(r["margin"]) >= 0 for r in rows)

    def test_small_lambda_grid_all_contained(self, capsys):
        code, out = run(
            capsys,
            ["verify", "poisson-entropy", "--method", "small-lambda",
             "--grid", "0.1:1:0.1", "--m-list", "1,2,3,4,5,6,7,8"],
        )
        assert code == 0
        assert len(rows_of(out)) == 80

    def test_relative_entropy_contained(self, capsys):
        code, out = run(
            capsys,
            ["verify", "relative-entropy", "--n", "30", "--m-list", "1,2"],
        )
        assert code == 0
        assert all(r["contained"] == "true" for r in rows_of(out))

    def test_corrupted_coefficient_trips_verification(self, capsys, monkeypatch):
        import entropy_bounds.coefficients as coefficients

        good = poisson_coeffs(1)
        # pull the expansion term down by more than the order-1 gap, so the
        # corrupted upper bound falls below the true entropy
        corrupted = CoeffSet(
            m=1, b={1: good.b[1] - F(5, 2)}, a=dict(good.a)
        )

        def fake(m):
            return corrupted if m == 1 else poisson_coeffs.__wrapped__(m)

        monkeypatch.setattr(coefficients, "poisson_coeffs", fake)
        code, out = run(
            capsys, ["verify", "poisson-entropy", "--points", "10", "--m-list", "1"]
        )
        assert code == 1
        assert rows_of(out)[0]["contained"] == "false"


class TestUsageErrors:
    """Input the command cannot run exits 2 with a one-line message on stderr."""

    @pytest.mark.parametrize("argv", [
        ["verify", "poisson-entropy", "--points", "0"],
        ["verify", "relative-entropy", "--n", "12", "--points", "1"],
    ])
    def test_verify_point_outside_domain(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "entropy_bounds.cli", *argv, "--bits", "64"],
            capture_output=True, text=True, env=child_env(), timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("entropy-bounds: error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["verify", "relative-entropy", "--n", "1000", "--points", "1e-20", "--m-list", "2"],
        ["bounds", "relative-entropy", "--n", "1000", "--points", "1e-20", "--m", "2"],
    ])
    def test_crossing_ends_exit_2(self, capsys, argv):
        assert cli.main(argv + ["--bits", "64"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("entropy-bounds: error:")

    @pytest.mark.parametrize("argv", [
        ["bounds", "poisson-entropy", "--points", "1", "--method", "bogus"],
        ["bounds", "binomial-entropy", "--n", "12", "--points", "0.3", "--method", "bogus"],
        ["bounds", "binomial-entropy", "--n", "12", "--points", "0.3", "--method", "small-lambda"],
        ["bounds", "relative-entropy", "--n", "12", "--points", "0.3", "--method", "bogus"],
        ["verify", "poisson-entropy", "--points", "1", "--method", "bogus"],
        ["verify", "poisson-entropy", "--points", "3", "--method", "cover-thomas"],
        ["verify", "binomial-entropy", "--n", "12", "--points", "0.3", "--method", "bogus"],
        ["verify", "relative-entropy", "--n", "12", "--points", "0.3", "--method", "bogus"],
    ])
    def test_method_not_offered(self, capsys, argv):
        assert cli.main(argv + ["--bits", "64"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("entropy-bounds: error:")
        assert argv[-1] in captured.err

    @pytest.mark.parametrize("argv", [
        ["bounds", "poisson-entropy", "--points", "", "--m", "1"],
        ["bounds", "poisson-entropy", "--grid", "", "--points", "1"],
        ["verify", "poisson-entropy", "--grid", ""],
        ["figure", "gaps", "--points", ""],
    ])
    def test_empty_grid_or_points_is_not_the_default(self, capsys, argv):
        assert cli.main(argv + ["--bits", "64"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("entropy-bounds: error:")

    def test_one_sided_method_refused_before_oracle(self, capsys, monkeypatch):
        def oracle_must_not_run(*args):
            raise AssertionError("the oracle ran before the method was refused")

        monkeypatch.setattr("entropy_bounds.oracle.poisson_entropy_oracle", oracle_must_not_run)
        argv = ["verify", "poisson-entropy", "--method", "cover-thomas", "--points", "3"]
        assert cli.main(argv + ["--bits", "64"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("entropy-bounds: error:")

    @pytest.mark.parametrize("argv", [
        ["coeffs", "poisson", "--m", "0"],
        ["coeffs", "binomial", "--m", "-2"],
    ])
    def test_coeffs_order_below_one(self, capsys, argv):
        assert cli.main(argv + ["--bits", "64"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("entropy-bounds: error:")
        assert "--m" in captured.err

    @pytest.mark.parametrize("argv", [
        ["bounds", "poisson-entropy", "--points", "1", "--bits", "10"],
        ["bounds", "poisson-entropy", "--points", "a,b"],
        ["bounds", "poisson-entropy", "--grid", "a:b:c"],
        ["verify", "poisson-entropy", "--points", "1", "--m-list", "x"],
        ["verify", "poisson-entropy", "--points", "1", "--m-list", "0"],
        ["bounds", "poisson-entropy", "--points", "1", "--m", "abc"],
        ["bounds", "poisson-entropy", "--points", "1", "--m", "0"],
        ["bounds", "poisson-entropy", "--points", "1", "--m", ""],
        ["bounds", "poisson-entropy", "--points", "1", "--m", "1,2"],
        ["verify", "poisson-entropy", "--points", "1", "--m-list", ""],
        ["figure", "gaps", "--points", "10", "--m-list", ""],
        ["verify", "poisson-entropy", "--points", "1", "--m-list", "auto"],
        ["figure", "gaps", "--points", "10", "--m-list", "auto"],
        ["coeffs", "small-lambda"],
        ["bounds", "binomial-entropy", "--n", "0", "--points", "0.5"],
    ])
    def test_bad_flag_value(self, capsys, argv):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("entropy-bounds: error:")

    @pytest.mark.parametrize("argv, flag", [
        (["coeffs", "poisson", "--m", "1", "--kmax", "1"], "--kmax"),
        (["coeffs", "small-lambda", "--kmax", "3", "--m", "0"], "--m"),
        (["bounds", "poisson-entropy", "--points", "1", "--n", "5"], "--n"),
        (["verify", "poisson-entropy", "--points", "1", "--n", "0", "--m-list", "1"], "--n"),
        (["bounds", "binomial-entropy", "--n", "10", "--points", "0.5", "--method", "stirling-m1",
          "--m", "3"], "--m"),
        (["bounds", "poisson-entropy", "--points", "1", "--method", "cover-thomas", "--m", "auto"],
         "--m"),
        (["verify", "binomial-entropy", "--n", "10", "--points", "0.5", "--method", "stirling-m1",
          "--m-list", "4"], "--m-list"),
    ])
    def test_flag_not_read_is_refused(self, capsys, argv, flag):
        assert cli.main(argv + ["--bits", "64"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("entropy-bounds: error:") and captured.err.count("\n") == 1
        assert f"{flag} is not read" in captured.err

    def test_order_flag_matches_the_library(self):
        # _TARGETS states apart from bounds whether a routine takes an order; its signature decides
        for target, (*_, methods) in cli._TARGETS.items():
            for method, (name, takes_order) in methods.items():
                params = inspect.signature(getattr(cli.bounds, name)).parameters
                assert takes_order == ("m" in params), (target, method)

    def test_unknown_coefficient_kind_exits_2(self, capsys):
        # argparse's choices refuse the kind before any handler runs
        with pytest.raises(SystemExit) as exc:
            cli.main(["coeffs", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["figure", "gaps", "--points", "10", "--m", "3"],
        ["bounds", "poisson-entropy", "--point", "1"],
        ["bounds", "poisson-entropy", "--points", "1", "--form", "json"],
        ["bounds", "poisson-entropy", "--points", "1", "--bit", "64"],
        ["verify", "poisson-entropy", "--points", "3", "--m", "3"],
    ])
    def test_abbreviated_flag_exits_2(self, capsys, argv):
        # a flag is read only as spelled in full, never as the prefix of one the command reads
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bounds_help_names_every_method(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "1000")  # no wrapping, so no name is split at a hyphen
        with pytest.raises(SystemExit):
            cli.main(["bounds", "--help"])
        text = capsys.readouterr().out
        for target, (*_, methods) in cli._TARGETS.items():
            named = [m for m in methods if m is not None]
            for method in named:
                assert method in text, (target, method)
            if named:  # the default method comes first
                assert f"{target}: {named[0]}" in text


class TestFigureCommand:
    def test_gap_endpoints_match_quoted_values(self, capsys):
        code, out = run(
            capsys,
            ["figure", "gaps", "--grid", "10:20:10", "--m-list", "1,2,3", "--bits", "128"],
        )
        assert code == 0
        rows = rows_of(out)
        assert [r["lambda"] for r in rows] == ["10.0", "20.0"]
        for row in rows:
            lam = int(float(row["lambda"]))
            for m in (1, 2, 3):
                quoted = FIGURE_GAPS[(m, lam)]
                assert abs(float(row[f"gap_m{m}"]) / quoted - 1) < 0.1

    def test_bounds_figure_consistent_with_gaps(self, capsys):
        _, gaps_out = run(
            capsys, ["figure", "gaps", "--grid", "10:12:1", "--m-list", "1", "--bits", "128"]
        )
        _, bounds_out = run(
            capsys, ["figure", "bounds", "--grid", "10:12:1", "--m-list", "1", "--bits", "128"]
        )
        with mp.workprec(200):
            for grow, brow in zip(rows_of(gaps_out), rows_of(bounds_out)):
                width = mpf(brow["upper_m1"]) - mpf(brow["lower_m1"])
                assert abs(width - mpf(grow["gap_m1"])) < mpf("1e-35")

    def test_csv_roundtrips_losslessly(self, capsys):
        _, out = run(capsys, ["figure", "gaps", "--grid", "10:11:1", "--m-list", "2"])
        digits = cli._digits(256)
        import mpmath

        for row in rows_of(out):
            with mp.workprec(256):
                value = mpf(row["gap_m2"])
                assert mpmath.nstr(value, digits) == row["gap_m2"]

    def test_nonpositive_lambda_quotes_the_bound(self, capsys):
        assert cli.main(["figure", "gaps", "--grid", "0:5:1", "--bits", "64"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "entropy-bounds: error: lam must be > 0, got 0.0\n"

    def test_default_points_are_the_targets(self, capsys):
        """No --grid or --points: the poisson-entropy points that `bounds` takes,
        and the same large-lambda gaps."""
        _, fig = run(capsys, ["figure", "gaps", "--m-list", "2", "--bits", "64"])
        _, table = run(capsys, ["bounds", "poisson-entropy", "--m", "2", "--bits", "64"])
        rows = rows_of(fig)
        assert len(rows) == 9
        assert [(r["lambda"], r["gap_m2"]) for r in rows] == [
            (r["lambda"], r["gap"]) for r in rows_of(table)]

    def test_bad_range_is_usage_error(self, capsys):
        code, _ = run(capsys, ["figure", "gaps", "--grid", "0:5:1"])
        assert code == 2
        code, _ = run(capsys, ["figure", "gaps", "--grid", "5:1:1"])
        assert code == 2


class TestDeterminismAndEnvironment:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["bounds", "poisson-entropy", "--grid", "1:5:1", "--m", "2"]
        assert cli.main(argv + ["--out", str(a)]) == 0
        assert cli.main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()

    def test_bits_flag_is_the_only_precision_input(self, capsys, monkeypatch):
        monkeypatch.setenv("ENTROPY_BOUNDS_BITS", "128")  # a retired variable, now ignored
        _, out = run(capsys, ["coeffs", "small-lambda", "--kmax", "2"])
        assert json.loads(out)["bits"] == DEFAULT_CONTEXT.bits
        _, out = run(capsys, ["coeffs", "small-lambda", "--kmax", "2", "--bits", "192"])
        assert json.loads(out)["bits"] == 192

    def test_unknown_target_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bounds", "nonsense"])
        assert exc.value.code == 2


# stdout captured once from a known-good build; each command reaches a
# different path (Poisson/binomial coefficient export, LogLaurent evaluation,
# the Stirling constants, order selection, oracle comparison, the c(k) table)
GOLDEN_COMMANDS = {
    "coeffs_binomial_m3": ["coeffs", "binomial", "--m", "3"],
    # orders 4-6 and their larger q-exponents
    "coeffs_binomial_m6": ["coeffs", "binomial", "--m", "6"],
    "coeffs_poisson_m4": ["coeffs", "poisson", "--m", "4"],
    "bounds_relative_entropy": [
        "bounds", "relative-entropy", "--n", "100", "--points", "0.05,0.5,0.95", "--m", "3",
    ],
    "bounds_binomial_entropy_stirling": [
        "bounds", "binomial-entropy", "--n", "50", "--points", "0.2,0.8", "--method", "stirling-m1",
    ],
    "bounds_binomial_entropy_auto": [
        "bounds", "binomial-entropy", "--n", "200", "--points", "0.3", "--m", "auto",
    ],
    "verify_relative_entropy": ["verify", "relative-entropy", "--n", "30", "--bits", "128"],
    "coeffs_small_lambda_k12": ["coeffs", "small-lambda", "--kmax", "12", "--bits", "64"],
    "bounds_poisson_entropy_small_lambda": [
        "bounds", "poisson-entropy", "--method", "small-lambda", "--points", "0.1,0.5,1", "--m", "3",
    ],
    # the rows below pin the domain-error rows and the orderless methods
    "bounds_poisson_entropy_cover_thomas": [
        "bounds", "poisson-entropy", "--points=-1,0,10", "--method", "cover-thomas", "--bits", "64",
    ],
    "bounds_binomial_entropy_stirling_error": [
        "bounds", "binomial-entropy", "--n", "10", "--points", "0,0.5", "--method", "stirling-m1",
        "--bits", "64",
    ],
    "bounds_relative_entropy_auto_json": [
        "bounds", "relative-entropy", "--n", "10", "--points", "0,0.5", "--m", "auto",
        "--bits", "64", "--format", "json",
    ],
    "verify_binomial_entropy_stirling": [
        "verify", "binomial-entropy", "--n", "12", "--points", "0.3,0.7", "--method", "stirling-m1",
        "--bits", "64",
    ],
    "verify_poisson_entropy_small_lambda": [
        "verify", "poisson-entropy", "--method", "small-lambda", "--points", "0.1,0.5",
        "--m-list", "1,2,3", "--bits", "64",
    ],
    # figure: gap and bound columns, a fractional grid step and a points list
    "figure_gaps_grid": ["figure", "gaps", "--grid", "10:20:1/2", "--m-list", "1,2,3"],
    "figure_bounds_bits64": [
        "figure", "bounds", "--grid", "2:5:1", "--m-list", "1,2,3", "--bits", "64",
    ],
    "figure_gaps_points_bits128": [
        "figure", "gaps", "--points", "3,7/2,100", "--m-list", "6", "--bits", "128",
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_stdout_is_byte_identical_to_fixture(name):
    proc = subprocess.run(
        [sys.executable, "-m", "entropy_bounds.cli", *GOLDEN_COMMANDS[name]],
        capture_output=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "tests" / "fixtures" / "cli" / f"{name}.out").read_bytes()


def test_auto_grid_is_byte_identical(capsys):
    # the 991-point --m auto grid, whose sha256 was captured from the six-order scan that
    # m="auto" replaced; the least-evaluated-gap rule reproduces that grid byte for byte, and
    # its m column reads 987 x 6, 3 x 5 and 1 x 4
    code, out = run(capsys, ["bounds", "poisson-entropy", "--grid", "10:1000:1", "--m", "auto"])
    assert code == 0
    orders = [row["m"] for row in rows_of(out)]
    assert {m: orders.count(m) for m in set(orders)} == {"6": 987, "5": 3, "4": 1}
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7a2a956daed4e1e43fe8d622522fbc7df6008a0fd387b3d4505221329d6f6c71")


# --- seeded sweep -----------------------------------------------------------

# point pools: lam <= 0, p = 0 and p = 1 give domain-error rows, and p = 1e-20 ends that cross
# at 64 bits; verify takes the first seven lambdas only, as its oracle walks about sqrt(lam) terms
_SWEEP_POINTS = {
    "poisson-entropy": ("1/10", "1/2", "1", "3", "7/2", "10", "-1", "0", "20", "100", "1e3",
                        "1e30", "1e-30"),
    "binomial-entropy": ("1/20", "0.3", "1/2", "0.95", "1e-20", "0", "1"),
}
_SWEEP_POINTS["relative-entropy"] = _SWEEP_POINTS["binomial-entropy"]
_SWEEP_GRIDS = {"poisson-entropy": ("1:5:1", "10:12:1/2", "1/10:1/2:1/5"),
                "binomial-entropy": ("1/10:9/10:1/5", "0.25:0.75:0.25")}
_SWEEP_GRIDS["relative-entropy"] = _SWEEP_GRIDS["binomial-entropy"]
# one appended to about one argv in seven: argparse's own refusals first, then the handlers'
_SWEEP_FAULTS = (
    ["--bits", "x"], ["--bit", "64"], ["--m-lis", "2"], ["--bits", "10"], ["--bits", "63"],
    ["--points", "a,b"], ["--points", ""], ["--points", "1/0"], ["--points", ","],
    ["--grid", "a:b:c"], ["--grid", "1:2"], ["--grid", "5:1:1"], ["--grid", "1:2:0"],
    ["--grid", ""], ["--grid", "1:2:1"],
)
# TestUsageErrors' kinds of refusal, reached whatever the seed draws
_SWEEP_FIXED = [
    ["bounds", "poisson-entropy", "--points", "1", "--bits", "10"],
    ["verify", "poisson-entropy", "--points", "0", "--bits", "64"],
    ["bounds", "poisson-entropy", "--points", "1", "--n", "5"],
    ["bounds", "binomial-entropy", "--n", "10", "--points", "0.5", "--method", "stirling-m1",
     "--m", "3"],
    ["verify", "relative-entropy", "--n", "1000", "--points", "1e-20", "--m-list", "2",
     "--bits", "64"],
    ["bounds", "relative-entropy", "--n", "1000", "--points", "1e-20", "--m", "2", "--bits", "64"],
]


def _sweep_argv(rng) -> list:
    """One seeded argv: mostly a valid command, with a domain edge, a refused flag or a bad
    value at a rate that reaches every usage error of each subcommand.  A value that may start
    with '-' is joined to its flag by '=', as argparse's reading of "-1,3" after a flag differs
    between Python versions."""
    command = rng.choice(["coeffs", "bounds", "bounds", "verify", "figure"])
    bits = rng.choice([[], ["--bits", "64"], ["--bits", "64"], ["--bits", "128"]])
    if command == "coeffs":
        kind = rng.choice(["poisson", "binomial", "small-lambda"])
        flags = (["--kmax", str(rng.randint(2, 12))] if kind == "small-lambda"
                 else ["--m", str(rng.randint(1, 6))])
        if rng.random() < 0.2:  # an order below one, the other kind's flag, or none
            flags = rng.choice([[f"--m={rng.randint(-1, 0)}"], ["--kmax", "1"],
                                ["--m", "2", "--kmax", "3"], [], ["--m", "x"]])
        return ["coeffs", rng.choice([kind] * 9 + ["bogus"]), *flags, *bits]
    target = "poisson-entropy" if command == "figure" else rng.choice(list(cli._TARGETS))
    argv = [command, rng.choice(["gaps", "bounds"]) if command == "figure" else target]
    methods = [m for m in cli._TARGETS[target][3] if m is not None]
    method = "large-lambda" if command == "figure" else rng.choice(methods or [None])
    if method is not None and command != "figure" and (rng.random() < 0.5 or method != methods[0]):
        argv += ["--method", method if rng.random() < 0.95 else "bogus"]
    takes_order = cli._TARGETS[target][3][method][1]
    if target != "poisson-entropy":
        if rng.random() < 0.95:
            argv += ["--n", rng.choice(["10", "30", "100"] if command == "verify"
                                       else ["10", "200", "1000", "0"])]
    elif command != "figure" and rng.random() < 0.03:
        argv += ["--n", "5"]
    pool = _SWEEP_POINTS[target]
    if command == "verify" and target == "poisson-entropy":
        pool = pool[:7]
    if rng.random() < 0.7:
        argv.append("--points=" + ",".join(rng.sample(pool, rng.randint(1, 3))))
    elif rng.random() < 0.7:
        argv += ["--grid", rng.choice(_SWEEP_GRIDS[target])]
    if takes_order or rng.random() < 0.1:
        if command == "bounds" and rng.random() < 0.85:
            argv += ["--m", rng.choice(["1", "2", "3", "4", "5", "6", "auto", "auto"])]
        elif command != "bounds" and rng.random() < 0.7:
            argv += ["--m-list", rng.choice(["1,2", "1,2,3", "3", "2,4,6", "1,,2"])]
        elif rng.random() < 0.3:
            flag = "--m" if command == "bounds" else "--m-list"
            argv.append(f"{flag}={rng.choice(['0', 'abc', '', '1,2', 'auto', '-1'])}")
    if command == "bounds" and rng.random() < 0.3:
        argv += ["--format", rng.choice(["json", "csv"])]
    if rng.random() < 0.15:
        argv += rng.choice(_SWEEP_FAULTS)
    return argv + bits


def test_seeded_sweep_is_byte_identical():
    # 406 argv through main in process, pinned from a known-good build: each call's argv, exit
    # code, stdout and stderr, but for argparse's own refusals only the argv and exit code, as
    # their usage text follows the terminal width and the Python version
    rng = random.Random(43)
    digest, errors, codes = hashlib.sha256(), "", set()
    for argv in _SWEEP_FIXED + [_sweep_argv(rng) for _ in range(400)]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code, record = exc.code, (argv, exc.code)
            else:
                record = (argv, code, out.getvalue(), err.getvalue())
                errors += err.getvalue()
        codes.add((argv[0], code, len(record)))
        digest.update(repr(record).encode())
    assert {(command, 0, 4) for command in ("coeffs", "bounds", "verify", "figure")} <= codes
    assert 1 not in {code for _, code, _ in codes}, "a sandwich missed its oracle"
    for message in ("bits must be >= 64", "bad points list", "bad grid spec", "grid requires",
                    "give either --grid or --points", "--n is not read by target",
                    "--m is not read by method", "--m-list is not read by method", "cross at"):
        assert message in errors, message
    assert digest.hexdigest() == (
        "dcad3df3953fa86b14d4a236fc1e8ffef095f6978270c4c890c0eeaf66a7b05d")
