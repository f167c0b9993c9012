"""Brute-force oracle self-tests: closed-form anchors, distribution
identities, precision-escalation stability, and the oracles' independence
from the bounds path."""

import ast
import json
import math
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest
from mpmath import mp, mpf
from mpmath.libmp import to_rational

from conftest import child_env
from entropy_bounds import (
    DEFAULT_CONTEXT,
    DomainError,
    PrecisionContext,
    binomial_entropy_oracle,
    entropy_poisson_large,
    entropy_poisson_small,
    expected_log_binomial,
    expected_log_poisson,
    expected_log_poisson_bounds,
    moment_oracle_poisson,
    poisson_entropy_oracle,
    relative_entropy_exact,
    relative_entropy_oracle,
)
import entropy_bounds.oracle as oracle
from entropy_bounds.oracle import (
    _binomial_law,
    _outward,
    _poisson_law,
    _tail,
)
from entropy_bounds.symbolic import (
    _TABLE_BITS,
    _TABLE_CAP,
    _dyadic,
    _log_factorial_reader,
    _log_factorials,
)

ROOT = Path(__file__).resolve().parents[1]

GRID = [(n, p) for n in (5, 10, 30, 100) for p in (0.05, 0.2, 0.5, 0.8, 0.95)]

# the Poisson oracles pinned in tests/fixtures/poisson_oracles.json, by name
POISSON_ORACLES = {
    "poisson_entropy_oracle": lambda lam, ctx: poisson_entropy_oracle(lam, ctx)[0],
    "expected_log_poisson": expected_log_poisson,
    "moment_oracle_poisson_3": lambda lam, ctx: moment_oracle_poisson(3, lam, ctx),
    "moment_oracle_poisson_6": lambda lam, ctx: moment_oracle_poisson(6, lam, ctx),
}


class TestPoissonEntropyOracle:
    def test_zero_mean(self):
        value, receipt = poisson_entropy_oracle(0)
        assert value == 0
        assert receipt.tail_bound == 0

    def test_receipt_certifies_target(self):
        # every receipt certifies its tail to 2^-bits, far past any float's range at 2000 bits
        for bits in (64, 256, 1000, 2000):
            ctx = PrecisionContext(bits=bits)
            for lam in (F(1, 1000), F(1, 10), 1, 100, 1000):
                receipt = poisson_entropy_oracle(lam, ctx)[1]
                assert 0 <= receipt.rel_err_bound <= ctx.mp.ldexp(1, -bits)
                assert receipt.terms_used > 0

    def test_relative_error_bound_is_rounded_up(self):
        # rel_err_bound is at least tail_bound / value as exact rationals; rounded to nearest,
        # 102 / 98 of these 199 receipts fell below it
        exact = lambda x: F(*to_rational(x._mpf_))
        for bits in (64, 256):
            ctx = PrecisionContext(bits)
            for k in range(1, 200):
                value, receipt = poisson_entropy_oracle(F(k, 7), ctx)
                assert exact(receipt.rel_err_bound) >= exact(receipt.tail_bound) / exact(value), (
                    bits, k)

    def test_bit_identical_to_fixture(self):
        # (mantissa, exponent) of every value, captured once from a known-good
        # build: eleven lam from 1e-6 to 3000 at 64, 128, 256 and 320 bits
        cases = json.loads((ROOT / "tests" / "fixtures" / "poisson_oracles.json").read_text())
        assert len(cases["cases"]) == 176
        for case in cases["cases"]:
            got = POISSON_ORACLES[case["oracle"]](F(case["lam"]), PrecisionContext(case["bits"]))
            assert got.man_exp == (case["man"], case["exp"]), case

    def test_pinned_values_are_correctly_rounded(self):
        # each pinned value is the same oracle at bits + 256, rounded to bits;
        # H(lam) cancels about log2(lam log lam / H) bits, which the series
        # must not lose to an early rounding
        cases = json.loads((ROOT / "tests" / "fixtures" / "poisson_oracles.json").read_text())
        for case in cases["cases"]:
            ctx, wide = PrecisionContext(case["bits"]), PrecisionContext(case["bits"] + 256)
            value = POISSON_ORACLES[case["oracle"]](F(case["lam"]), wide)
            assert ctx.round(value).man_exp == (case["man"], case["exp"]), case

    def test_terms_follow_sqrt_lam(self):
        # both tails of a mean of 1e5 lie within a few thousand terms of the mode
        _, receipt = poisson_entropy_oracle(10**5, PrecisionContext(bits=256))
        assert receipt.terms_used < 20_000

    def test_stops_at_first_certified_tail(self):
        # the first certified tail comes after 1,733 terms, about 23 sqrt(lam) past the mean
        _, receipt = poisson_entropy_oracle(1000, PrecisionContext(bits=256))
        assert receipt.terms_used < 2000

    def test_weights_are_read_from_the_mode_down_then_up(self):
        # _outward reads each weight once, in the order its docstring gives
        M = PrecisionContext(64).mp
        read, e = _log_factorial_reader(M.prec)
        reads = []
        _outward(_poisson_law(M.mpf(500), M.prec, read, e),
                 lambda j: reads.append(j) or (read(j + 1) - read(j), e), M)
        low, high = min(reads), max(reads)
        assert 0 < low < 400 and high > 600
        assert reads == [500, *range(499, low - 1, -1), *range(501, high + 1)]

    def test_contained_in_small_mean_interval(self):
        value, _ = poisson_entropy_oracle(1)
        assert entropy_poisson_small(1, m=4).contains(value)

    def test_contained_in_large_mean_interval(self):
        value, _ = poisson_entropy_oracle(10)
        assert entropy_poisson_large(10, m=3).contains(value)

    def test_precision_escalation_consistency(self):
        ctx2 = PrecisionContext(bits=512)
        for lam in (0.5, 10):
            v1, _ = poisson_entropy_oracle(lam, DEFAULT_CONTEXT)
            v2, _ = poisson_entropy_oracle(lam, ctx2)
            assert abs(v1 - v2) <= mpf("1e-30") * abs(v2)

    def test_domain(self):
        with pytest.raises(DomainError):
            poisson_entropy_oracle(-1)


class TestBinomialEntropyOracle:
    def test_degenerate(self):
        assert binomial_entropy_oracle(7, 0) == 0
        assert binomial_entropy_oracle(7, 1) == 0

    def test_single_trial(self):
        with mp.workprec(300):
            assert abs(binomial_entropy_oracle(1, 0.5) - mpmath.log(2)) < mpf("1e-70")

    @pytest.mark.parametrize("n,p", [(10, 0.3), (50, 0.5), (100, 0.95)])
    def test_factorization_identity(self, n, p):
        """H(n,p) = log n! - n log n + n - D(n,p) - D(n,q)."""
        with mp.workprec(320):
            q = 1 - mpf(p)  # exact complement of the binary value of p
            lhs = binomial_entropy_oracle(n, p)
            base = mpmath.log(mpf(math.factorial(n))) - n * mpmath.log(n) + n
            rhs = base - relative_entropy_oracle(n, p) - relative_entropy_oracle(n, q)
            assert abs(lhs - rhs) < mpf("1e-25") * max(1, abs(lhs))


    def test_large_n_is_fast(self):
        # one fresh interpreter, so no log-factorial table is warm: the sum
        # covers the few thousand terms around the mode, not all n + 1
        code = (
            "import time\n"
            "from fractions import Fraction\n"
            "from entropy_bounds import PrecisionContext, binomial_entropy_oracle\n"
            "ctx = PrecisionContext(256)\n"
            "t = time.perf_counter()\n"
            "binomial_entropy_oracle(10**4, Fraction(3, 10), ctx)\n"
            "print(time.perf_counter() - t)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 0.25


class TestBinomialOraclesPinned:
    def test_bit_identical_to_fixture(self):
        # (mantissa, exponent) of every value, captured once from a known-good
        # build: n from 1 to 400 and p from 0 to 1 at 64, 128, 256 and 320 bits,
        # expected-log only for 0 < p < 1
        oracles = {
            "binomial_entropy_oracle": binomial_entropy_oracle,
            "relative_entropy_oracle": relative_entropy_oracle,
            "expected_log_binomial": expected_log_binomial,
        }
        cases = json.loads((ROOT / "tests" / "fixtures" / "binomial_oracles.json").read_text())
        assert len(cases["cases"]) == 896
        for case in cases["cases"]:
            got = oracles[case["oracle"]](case["n"], F(case["p"]), PrecisionContext(case["bits"]))
            assert got.man_exp == (case["man"], case["exp"]), case


BINOMIAL_ORACLES = (binomial_entropy_oracle, relative_entropy_oracle, expected_log_binomial)


@pytest.fixture
def outward_terms(monkeypatch):
    """The term count of every outward sum an oracle makes while the test runs."""
    counts = []

    def spy(law, weight, M):
        result = _outward(law, weight, M)
        counts.append(result[1])
        return result

    monkeypatch.setattr(oracle, "_outward", spy)
    return counts


class TestStopsPinned:
    """Where each side of an outward sum stops, captured once from the loop that
    asked for a tail at every term past the mean: lam from 1/10 to 10^5 and n up
    to 3000, at 64, 128 and 256 bits."""

    CASES = json.loads((ROOT / "tests" / "fixtures" / "oracle_stops.json").read_text())

    @pytest.mark.parametrize("case", CASES["poisson_entropy_oracle"],
                             ids=lambda c: f"{c['lam']}-{c['bits']}")
    def test_poisson_entropy_receipt(self, case, outward_terms):
        _, receipt = poisson_entropy_oracle(F(case["lam"]), PrecisionContext(case["bits"]))
        assert receipt.terms_used == case["terms_used"]
        assert receipt.tail_bound.man_exp == (case["tail_man"], case["tail_exp"])
        assert outward_terms == [case["terms_used"]]

    @pytest.mark.parametrize("case", CASES["binomial"],
                             ids=lambda c: f"{c['n']}-{c['p']}-{c['bits']}")
    def test_binomial_terms(self, case, outward_terms):
        for fn in BINOMIAL_ORACLES:
            outward_terms.clear()
            fn(case["n"], F(case["p"]), PrecisionContext(case["bits"]))
            assert outward_terms == [case[fn.__name__]], fn.__name__


@pytest.fixture
def outward_stops(monkeypatch):
    """(law, weight, {d: J}) of every outward sum an oracle makes while the test runs, J the
    first term left out on side d wherever that side stopped at a certified tail."""
    sums, reads = [], []

    def tail(*args):
        bound = _tail(*args)
        if bound is not None:
            j = reads[-1]  # t_j is the second term left out
            d = 1 if j > sums[-1][0].mode else -1
            sums[-1][2][d] = j - d
        return bound

    def outward(law, weight, M):
        sums.append((law, weight, {}))
        return _outward(law, lambda j: reads.append(j) or weight(j), M)

    monkeypatch.setattr(oracle, "_tail", tail)
    monkeypatch.setattr(oracle, "_outward", outward)
    return sums


def pmf_ratio(law, j, d):
    """pmf(j + d) / pmf(j) as an unreduced (num, den), from the law's mean and support alone."""
    if law.last is None:
        a, b = law.mean.numerator, law.mean.denominator  # lam = a / b
        return (a, b * (j + 1)) if d > 0 else (b * j, a)
    n, p = law.last, law.mean / law.last
    a, b = p.numerator, p.denominator - p.numerator  # p / q = a / b
    return ((n - j) * a, (j + 1) * b) if d > 0 else (j * b, (n - j + 1) * a)


class TestTail:
    def test_no_bound_unless_the_ratio_falls(self):
        # terms 4 then 5 or 4 do not fall, so no tail is certified; 4 then 1 bound the rest
        # by 4^2 / (4 - 1), rounded up at 64 bits
        assert _tail((4, 0), (5, 0), 1 << 40, -10, 8) is None
        assert _tail((4, 0), (4, 0), 1 << 40, -10, 8) is None
        bound = F(*to_rational(_tail((4, 0), (1, 0), 1 << 40, -10, 8)))
        assert F(16, 3) <= bound < F(16, 3) * (1 + F(1, 2**62))


class TestTailRequirement:
    """The requirement that _outward's docstring proves for the five weight families it is
    passed: beyond each real stop J, no ratio of exact pmf times stored weight exceeds the
    one at J, walked for four times J's distance from the mean or to the end of the support."""

    LAMS = [(lam,) for lam in (F(1, 10), F(7, 2), 50, 1000, 3000)]
    BINOMIAL = [(n, p) for n in (10, 400, 3000) for p in (F(1, 100), F(3, 10), F(99, 100))]
    FAMILIES = {  # the oracle that passes each family, and its points
        "log j!": (poisson_entropy_oracle, LAMS),
        "log(j + 1)": (expected_log_poisson, LAMS),
        "log C(n, k)": (binomial_entropy_oracle, BINOMIAL),
        "log(n!/(n - k)!)": (relative_entropy_oracle, BINOMIAL),
        "log(k + 1)": (expected_log_binomial, BINOMIAL),
    }

    @pytest.mark.parametrize("bits", [64, 128, 256])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_no_later_term_ratio_exceeds_the_stop(self, family, bits, outward_stops):
        fn, points = self.FAMILIES[family]
        for point in points:
            fn(*point, PrecisionContext(bits))
        stops = checked = 0
        for law, weight, sides in outward_stops:
            for d, J in sides.items():
                stops += 1
                assert d * J > d * law.mean, (family, J)
                end = law.last if d > 0 else 0
                steps = math.ceil(4 * abs(J - law.mean))
                if end is not None:
                    steps = min(steps, abs(end - J) - 1)
                (wJ, e), (wJd, ed) = weight(J), weight(J + d)
                assert wJ >= 0 and e == ed, (family, J)
                num, den = pmf_ratio(law, J, d)
                top, bottom = num * wJd, den * wJ  # the term ratio at J, for a nonzero t_J
                w = wJd
                for j in range(J + d, J + d * (steps + 1), d):
                    # a zero t_J stops only beside a zero t_(J+d), and zeros then follow
                    assert wJ or not w, (family, J, j)
                    w_next, e_next = weight(j + d)
                    assert e_next == e
                    if not w:
                        assert not w_next, (family, J, j)
                        continue
                    num, den = pmf_ratio(law, j, d)
                    assert num * w_next * bottom <= top * den * w, (family, law.mean, J, j)
                    checked += 1
                    w = w_next
        assert stops > len(points) // 2, family  # most sums stop short of the support's end
        assert checked > 1000, family


@pytest.mark.parametrize("call, rungs", [
    (lambda ctx: poisson_entropy_oracle(F(1, 10), ctx), 6),
    (lambda ctx: poisson_entropy_oracle(3000, ctx), 13),
    *((lambda ctx, fn=fn: fn(3000, F(3, 10), ctx), 12) for fn in BINOMIAL_ORACLES),
], ids=["poisson-1/10", "poisson-3000", *(fn.__name__ for fn in BINOMIAL_ORACLES)])
def test_one_call_builds_only_the_rungs_it_reads(call, rungs):
    # the ladder rungs of sizes 2, 4, ... up to the one holding the largest index read
    _log_factorials.cache_clear()
    call(PrecisionContext(256))
    assert _log_factorials.cache_info().currsize == rungs


class TestRelativeEntropyOracle:
    def test_degenerate(self):
        assert relative_entropy_oracle(9, 0) == 0

    def test_single_trial(self):
        with mp.workprec(300):
            p = mpf(0.3)  # same binary value the oracle sees
            want = p + (1 - p) * mpmath.log(1 - p)
            assert abs(relative_entropy_oracle(1, 0.3) - want) < mpf("1e-70")

    def test_certain_success(self):
        # all mass at k = n
        with mp.workprec(300):
            n = 6
            want = n - n * mpmath.log(n) + mpmath.log(mpf(math.factorial(n)))
            assert abs(relative_entropy_oracle(n, 1) - want) < mpf("1e-70")

    def test_agrees_with_exact_expansion(self):
        v = relative_entropy_exact(10, 0.3)
        o = relative_entropy_oracle(10, 0.3)
        assert abs(v - o) <= mpf("1e-25") * max(1, abs(o))

    @pytest.mark.parametrize("n", [2, 1000])
    @pytest.mark.parametrize("p", [F(1, 10**20), F(1, 10**80)])
    def test_agrees_with_exact_d_at_tiny_p(self, p, n):
        # the sum and np log n cancel under about log2(n log n / p) bits, far past the guard
        ctx = PrecisionContext(64)
        value, exact = relative_entropy_oracle(n, p, ctx), relative_entropy_exact(n, p, ctx)
        assert abs(value - exact) <= mpf(2) ** (mpmath.mag(exact) - 64), (value, exact)


class TestExpectedLogOracles:
    def test_poisson_small_mean_limit(self):
        assert abs(expected_log_poisson(1e-6)) < mpf("1e-5")

    def test_poisson_consistency_with_bounds(self):
        value = expected_log_poisson(5)
        assert expected_log_poisson_bounds(5, m=3).contains(value)

    @pytest.mark.parametrize("s, bits", [(F(1, 2**400), 64), (F(1, 10**100), 256)])
    def test_poisson_tiny_mean(self, s, bits):
        # the term at j = 0 is zero, so the sum is about s log 2, far below
        # any fixed unit of the mode's pmf
        value = expected_log_poisson(s, PrecisionContext(bits))
        with mp.workprec(bits + 600):
            sm = mpf(s.numerator) / s.denominator
            want = sum(mpmath.exp(-sm) * sm**j / mpmath.factorial(j) * mpmath.log(j + 1)
                       for j in range(12))
            assert abs(value - want) <= abs(want) * mpf(2) ** -bits

    def test_poisson_reproducible_across_precisions(self):
        v128 = expected_log_poisson(1, PrecisionContext(bits=128))
        v256 = expected_log_poisson(1, PrecisionContext(bits=256))
        assert abs(v128 - v256) < mpf("1e-30")

    def test_binomial_single_trial(self):
        with mp.workprec(300):
            s = mpf(0.37)  # same binary value the oracle sees
            assert abs(expected_log_binomial(1, 0.37) + mpmath.log(s)) < mpf("1e-70")

    def test_binomial_near_one(self):
        value = expected_log_binomial(50, 1 - 1e-6)
        assert mpmath.isfinite(value)

    def test_binomial_builds_one_log_table(self):
        _log_factorials.cache_clear()
        expected_log_binomial(50, F(3, 10))
        # the rungs of sizes 2, 4, ..., 64 that hold log 50!, each built once
        assert _log_factorials.cache_info().misses == 6

    def test_log_factorial_across_the_table_cap(self):
        # the last tabulated log i! and the first ones taken from loggamma
        # agree with loggamma at twice the precision, within 2^-(prec + 40)
        prec = 128
        log_factorial = _log_factorial_reader(prec)[0]
        for i in (_TABLE_CAP - 1, _TABLE_CAP, _TABLE_CAP + 1):
            with mp.workprec(2 * prec + 64):
                want = mpmath.loggamma(i + 1) * mpf(2) ** (prec + _TABLE_BITS)
                assert abs(log_factorial(i) - want) < 2 ** 24, i

    @pytest.mark.parametrize("n,p", [(8, 0.25), (20, 0.6)])
    def test_size_bias_identity(self, n, p):
        """np E[phi(B_{n-1,p} + 1)] = E[B_{n,p} phi(B_{n,p})], phi = log(1+.)."""
        with mp.workprec(320):
            pm = mpf(p)
            reader = _log_factorial_reader(mp.prec)
            lhs = n * pm * _outward(_binomial_law(n - 1, pm, mp.prec, *reader),
                                    lambda k: _dyadic(mpmath.log(k + 2)._mpf_), mp)[0]
            rhs = _outward(_binomial_law(n, pm, mp.prec, *reader),
                           lambda k: _dyadic((k * mpmath.log(k + 1))._mpf_), mp)[0]
            assert abs(lhs - rhs) < mpf("1e-25") * max(1, abs(rhs))


class TestPrecisionEscalation:
    """Every oracle recomputed at doubled precision agrees to the target."""

    def test_grid(self):
        ctx2 = PrecisionContext(bits=512)
        for n, p in [(5, 0.2), (30, 0.5), (100, 0.95)]:
            for fn in (binomial_entropy_oracle, relative_entropy_oracle):
                v1 = fn(n, p, DEFAULT_CONTEXT)
                v2 = fn(n, p, ctx2)
                assert abs(v1 - v2) <= mpf("1e-30") * max(1, abs(v2))
        e1 = expected_log_binomial(20, 0.5, DEFAULT_CONTEXT)
        e2 = expected_log_binomial(20, 0.5, PrecisionContext(bits=512))
        assert abs(e1 - e2) <= mpf("1e-30") * max(1, abs(e2))


class TestIndependence:
    """No module on the bounds path reaches the oracles, so a bound and its
    oracle share no code."""

    BOUNDS_PATH = ("symbolic", "moments", "coefficients", "bounds")

    @staticmethod
    def relative_imports():
        imports = {}
        for path in (ROOT / "src" / "entropy_bounds").glob("*.py"):
            names = set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    if node.module is None:  # from . import a, b
                        names.update(alias.name for alias in node.names)
                    else:
                        names.add(node.module.split(".")[0])
            imports[path.stem] = names
        return imports

    def test_bounds_path_never_imports_oracle(self):
        imports = self.relative_imports()
        closure, todo = set(), list(self.BOUNDS_PATH)
        while todo:
            name = todo.pop()
            if name not in closure:
                closure.add(name)
                todo.extend(imports[name])
        assert "oracle" not in closure

    def test_oracle_imports_only_symbolic(self):
        assert self.relative_imports()["oracle"] == {"symbolic"}

    def test_only_symbolic_knows_the_log_ladder(self):
        # the ladder's unit, its cap and the ladder itself are named in symbolic alone; every
        # other module reads logarithms of integers through symbolic._logs and
        # symbolic._log_factorial_reader, which return the unit's exponent with their integers
        private = {"_TABLE_BITS", "_TABLE_CAP", "_log_factorials"}
        modules = {path.stem: path for path in (ROOT / "src" / "entropy_bounds").glob("*.py")}
        assert {"oracle", "bounds", "coefficients", "symbolic"} <= set(modules)
        for stem, path in modules.items():
            names = set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            assert bool(names & private) == (stem == "symbolic"), (stem, names & private)
