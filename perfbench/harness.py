"""Op execution, warm-up and correctness checks against the entropy_bounds API.

Every call goes through an attribute of the ``entropy_bounds`` package at
call time, so the tracer's wrappers see it.  Checks never run inside an
op's measured time, except in ``cross-check``, where judging each bound
against an oracle is the op itself; the oracle checks run after the timed
phase.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import comb
from pathlib import Path

import mpmath

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent

_BOUND_FN = {
    "poisson-small": "entropy_poisson_small",
    "poisson-large": "entropy_poisson_large",
    "poisson-ct": "entropy_poisson_ct",
    "relative-entropy": "relative_entropy_bounds",
    "binomial-corollary": "entropy_binomial_bounds",
    "binomial-stirling": "entropy_binomial_stirling_m1",
    "expected-log-poisson": "expected_log_poisson_bounds",
    "expected-log-binomial": "expected_log_binomial_bounds",
}
_TARGET_OF = {
    "poisson-small": "poisson-entropy",
    "poisson-large": "poisson-entropy",
    "poisson-ct": "poisson-entropy",
    "relative-entropy": "relative-entropy",
    "binomial-corollary": "binomial-entropy",
    "binomial-stirling": "binomial-entropy",
    "expected-log-poisson": "expected-log-poisson",
    "expected-log-binomial": "expected-log-binomial",
}
# fixed points at which derived coefficient sets beyond the golden tables
# must give a bound that contains the oracle
_POISSON_PROBE = Fraction(50)
_BINOMIAL_PROBE = (200, Fraction(3, 10))


def rounding_slack(end, bits: int):
    """How far past the true bound an interval end may lie, as entropy_bounds
    documents its evaluation: computed with guard bits, then rounded to
    nearest (not outward) at ``bits``.  That is half an ulp at ``bits``, plus
    2^-32 ulp for the guard-bit evaluation and the oracle's own error."""
    if not end:
        return mpmath.mpf(0)
    exponent = mpmath.mag(end) - bits
    return mpmath.ldexp(1, exponent - 1) + mpmath.ldexp(1, exponent - 32)


def strictly_encloses(lower, upper, value) -> bool:
    return (lower is None or lower <= value) and value <= upper


def enclosure_error(label: str, lower, upper, value, bits: int) -> str | None:
    """None when lower <= value <= upper (lower may be None) up to the
    rounding slack of each end at ``bits``, else why not."""
    with mpmath.workprec(bits + 2 * wl.ORACLE_GUARD_BITS):
        if lower is not None and not lower - rounding_slack(lower, bits) <= value:
            past, ulp = lower - value, 2 * rounding_slack(lower, bits)
            return (f"{label}: lower {mpmath.nstr(lower, 20)} > oracle {mpmath.nstr(value, 20)}"
                    f" by {mpmath.nstr(past / ulp, 3)} ulp at {bits} bits")
        if not value <= upper + rounding_slack(upper, bits):
            past, ulp = value - upper, 2 * rounding_slack(upper, bits)
            return (f"{label}: upper {mpmath.nstr(upper, 20)} < oracle {mpmath.nstr(value, 20)}"
                    f" by {mpmath.nstr(past / ulp, 3)} ulp at {bits} bits")
    return None


def within_ulps(label: str, got, want, bits: int, slack_bits: int = 1) -> str | None:
    """None when |got - want| <= 2^(slack_bits - bits) |want|."""
    with mpmath.workprec(bits + 64):
        if abs(got - want) <= abs(want) * mpmath.ldexp(1, slack_bits - bits):
            return None
        return f"{label}: {mpmath.nstr(got, 20)} differs from {mpmath.nstr(want, 20)}"


def load_golden():
    """The published coefficient tables kept with the test suite."""
    spec = importlib.util.spec_from_file_location("golden_data", ROOT / "tests" / "golden_data.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Harness:
    """Runs ops of one workload against the package ``eb``, and checks them."""

    def __init__(self, eb, workload: str, seed: int) -> None:
        self.eb = eb
        self.workload = workload
        self.seed = seed
        self._contexts: dict[int, object] = {}
        # intervals that miss the oracle, but by no more than their rounding
        # slack: the cost of rounding to nearest rather than outward
        self.rounding_misses = 0

    def ctx(self, bits: int):
        if bits not in self._contexts:
            self._contexts[bits] = self.eb.PrecisionContext(bits=bits)
        return self._contexts[bits]

    # -- warm-up ------------------------------------------------------------

    def warm_up(self) -> None:
        """Fill the caches a warm caller has: coefficient sets of orders
        1..6 and c(k) at every precision used, each routine evaluated once."""
        workload = self.workload
        if workload not in ("tabulate", "cross-check"):
            return
        eb = self.eb
        eb.stirling_m1_constants()
        for m in range(1, 7):
            eb.poisson_coeffs(m)
            eb.binomial_coeffs(m)
        for bits in wl.CROSS_CHECK_BITS:
            for routine in wl.TABULATE_ROUTINES:
                params = (Fraction(5),) if routine in wl.POISSON_ROUTINES else (40, Fraction(1, 4))
                for m in (None,) if routine in wl.NO_ORDER_ROUTINES else range(1, 7):
                    self.bound(routine, params, m, bits)
            if workload == "cross-check":
                for target in wl.CROSS_CHECK_TARGETS:
                    params = (Fraction(5),) if "poisson" in target else (40, Fraction(1, 4))
                    self.oracle(target, params, bits + wl.ORACLE_GUARD_BITS)

    def judge(self, label: str, lower, upper, value, bits: int) -> str | None:
        """enclosure_error, counting the misses that the rounding slack covers."""
        why = enclosure_error(label, lower, upper, value, bits)
        if why is None and not strictly_encloses(lower, upper, value):
            self.rounding_misses += 1
        return why

    # -- program calls ------------------------------------------------------

    def bound(self, routine: str, params: tuple, m, bits: int):
        fn = getattr(self.eb, _BOUND_FN[routine])
        ctx = self.ctx(bits)
        if m is None:
            return fn(*params, ctx=ctx)
        if m == "auto":
            return self.eb.best_interval(fn, *params, ctx=ctx)
        return fn(*params, m=m, ctx=ctx)

    def oracle(self, target: str, params: tuple, bits: int):
        """The target quantity, by brute force at ``bits``."""
        eb = self.eb
        octx = self.ctx(bits)
        if target == "poisson-entropy":
            return eb.poisson_entropy_oracle(*params, octx)[0]
        if target == "relative-entropy":
            return eb.relative_entropy_oracle(*params, octx)
        if target == "binomial-entropy":
            return eb.binomial_entropy_oracle(*params, octx)
        if target == "expected-log-poisson":
            return eb.expected_log_poisson(*params, octx)
        if target == "expected-log-binomial":
            # the oracle gives E[log((B + 1) / (n s))]; the bound omits log(n s)
            n, s = params
            value = eb.expected_log_binomial(n, s, octx)
            with mpmath.workprec(octx.bits + wl.ORACLE_GUARD_BITS):
                return value + mpmath.log(n * mpmath.mpf(s.numerator) / s.denominator)
        raise ValueError(f"unknown target {target!r}")

    def execute(self, op: tuple):
        kind = op[0]
        if kind == "tabulate":
            _, routine, params, m, bits = op
            return self.bound(routine, params, m, bits)
        if kind == "cross-check":
            return self._cross_check(*op[1:])
        if kind == "relative_entropy_exact":
            _, n, p, bits = op
            return self.eb.relative_entropy_exact(n, p, self.ctx(bits))
        if kind in ("poisson_coeffs", "binomial_coeffs"):
            return getattr(self.eb, kind)(op[1])
        if kind == "c_coeff":
            return self.eb.c_coeff(op[1], self.ctx(op[2]))
        raise ValueError(f"unknown op {op!r}")

    def _cross_check(self, target: str, params: tuple, bits: int):
        """One point: the oracle, then every bound of the target, each judged."""
        value = self.oracle(target, params, bits + wl.ORACLE_GUARD_BITS)
        if target == "poisson-entropy":
            routines = ["poisson-large", "poisson-small"]
        elif target == "binomial-entropy":
            routines = ["binomial-corollary"]
        else:
            routines = [target]
        misses = []
        for routine in routines:
            for m in wl.CROSS_CHECK_ORDERS:
                rep = self.bound(routine, params, m, bits)
                misses.append(self.judge(f"{routine} m={m}", rep.lower, rep.upper, value, bits))
        if target == "poisson-entropy":
            misses.append(self.judge("poisson-ct", None, self.bound("poisson-ct", params, None, bits),
                                      value, bits))
        if target == "binomial-entropy":
            rep = self.bound("binomial-stirling", params, None, bits)
            misses.append(self.judge("binomial-stirling", rep.lower, rep.upper, value, bits))
        return [miss for miss in misses if miss]

    # -- checks -------------------------------------------------------------

    @cached_property
    def _oracle_checked(self) -> set[int] | None:
        """Indices of the tabulate ops checked against an oracle: a seeded
        few per routine, among the first ops of the list, which every run
        reaches.  None for the other workloads, whose ops are all kept."""
        if self.workload != "tabulate":
            return None
        by_routine: dict[str, list[int]] = {}
        for i, op in enumerate(islice(wl.ops("tabulate", self.seed), wl.TABULATE_SAMPLED_PREFIX)):
            by_routine.setdefault(op[1], []).append(i)
        rng = random.Random(f"tabulate-check:{self.seed}")
        return {i for routine in wl.TABULATE_ROUTINES
                for i in rng.sample(by_routine[routine], wl.TABULATE_CHECKS_PER_ROUTINE)}

    def record(self, index: int, op: tuple, out):
        """What the checks need of an op's output, or None for nothing, so
        that the benchmark's memory does not grow with the number of ops.
        ``tabulate`` keeps the output of its oracle-checked ops and the
        failure of any other; ``cross-check`` keeps its misses."""
        if self.workload == "cross-check":
            return out or None
        if self._oracle_checked is None or index in self._oracle_checked:
            return out
        if op[1] == "poisson-ct":
            return None if out > 0 else f"poisson-ct: nonpositive upper bound {out}"
        return None if out.lower <= out.upper else f"{op[1]}: empty interval"

    def check(self, done: list[tuple]) -> dict[int, str]:
        """{index: failure} over ``done`` = [(index, op, recorded output)],
        the ops whose record was not None."""
        workload = self.workload
        if workload == "tabulate":
            return self._check_tabulate(done)
        if workload == "cross-check":
            return {i: "; ".join(out) for i, _, out in done}
        if workload == "derive-cold":
            return self._check_derived(done)
        if workload == "cli-cold":
            failures = {}
            for i, op, out in done:
                why = self.check_cli(op[1], *out)
                if why:
                    failures[i] = why
            return failures
        raise ValueError(f"unknown workload {workload!r}")

    def _check_tabulate(self, done) -> dict[int, str]:
        failures = {}
        for i, op, out in done:
            if i not in self._oracle_checked:
                if out:
                    failures[i] = out
                continue
            routine, params, bits = op[1], op[2], op[4]
            value = self.oracle(_TARGET_OF[routine], params, bits + wl.ORACLE_GUARD_BITS)
            if routine == "poisson-ct":
                why = self.judge(routine, None, out, value, bits)
            else:
                why = self.judge(f"{routine} m={out.m}", out.lower, out.upper, value, bits)
            if why:
                failures[i] = why
        return failures

    def _check_derived(self, done) -> dict[int, str]:
        eb = self.eb
        golden = load_golden()
        failures = {}
        for i, op, out in done:
            kind = op[0]
            if kind == "relative_entropy_exact":
                _, n, p, bits = op
                value = self.oracle("relative-entropy", (n, p), bits + wl.ORACLE_GUARD_BITS)
                why = within_ulps(f"D({n}, {p}) at {bits} bits", out, value, bits,
                                  wl.EXACT_D_SLACK_BITS)
            elif kind == "poisson_coeffs":
                m = op[1]
                if m <= 4:
                    want_a = {k: v for (mm, k), v in golden.TABLE_A.items() if mm == m}
                    want_b = {k: v for (mm, k), v in golden.TABLE_B.items() if mm == m}
                    ok = dict(out.a) == want_a and dict(out.b) == want_b
                    why = None if ok else f"poisson_coeffs({m}) differs from the golden table"
                else:
                    rep = eb.entropy_poisson_large(_POISSON_PROBE, m, self.ctx(256))
                    why = self.judge(f"poisson_coeffs({m}) bound", rep.lower, rep.upper,
                                     self.oracle("poisson-entropy", (_POISSON_PROBE,), 320), 256)
            elif kind == "binomial_coeffs":
                m = op[1]
                if m <= 2:
                    want_a = {k: v for (mm, k), v in golden.BINOMIAL_A.items() if mm == m}
                    want_b = {k: v for (mm, k), v in golden.BINOMIAL_B.items() if mm == m}
                    ok = dict(out.a_tilde) == want_a and dict(out.b_tilde) == want_b
                    why = None if ok else f"binomial_coeffs({m}) differs from the golden table"
                else:
                    rep = eb.relative_entropy_bounds(*_BINOMIAL_PROBE, m, self.ctx(256))
                    why = self.judge(f"binomial_coeffs({m}) bound", rep.lower, rep.upper,
                                     self.oracle("relative-entropy", _BINOMIAL_PROBE, 320), 256)
            else:
                _, k, bits = op
                why = within_ulps(f"c({k}) at {bits} bits", out, reference_c(k, bits), bits)
            if why:
                failures[i] = why
        return failures

    def check_cli(self, argv, returncode: int, stdout: str, stderr: str) -> str | None:
        """Exit code 0, parseable output, and one spot value per command
        equal to the library's at the same precision."""
        if returncode != 0:
            return f"{' '.join(argv)}: exit {returncode}: {stderr.strip()[-300:]}"
        try:
            return self._spot_check(list(argv), stdout)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"{' '.join(argv)}: unparseable output ({type(exc).__name__}: {exc})"

    def _spot_check(self, argv: list[str], stdout: str) -> str | None:
        eb = self.eb
        opts = dict(zip(argv[2::2], argv[3::2]))
        bits = int(opts.get("--bits", 256))
        ctx = self.ctx(bits)
        label = " ".join(argv)
        command, what = argv[0], argv[1]
        if command == "coeffs":
            obj = json.loads(stdout)
            if what == "poisson":
                cs = eb.poisson_coeffs(int(opts["--m"]))
                ok = ({int(k): Fraction(v) for k, v in obj["a"].items()} == dict(cs.a)
                      and {int(k): Fraction(v) for k, v in obj["b"].items()} == dict(cs.b))
            elif what == "binomial":
                cs = eb.binomial_coeffs(int(opts["--m"]))
                ok = (_loglaurents(obj["a"]) == _exact_terms(cs.a_tilde)
                      and _loglaurents(obj["b"]) == _exact_terms(cs.b_tilde))
            else:
                k = int(opts["--kmax"])
                return within_ulps(label, _parse(obj["c"][str(k)], bits), eb.c_coeff(k, ctx), bits)
            return None if ok else f"{label}: coefficients differ from the library"
        rows = _rows(stdout)
        first = rows[0]
        if command == "figure":
            lam = Fraction(argv[3].split(":")[0])
            for m in (1, 2, 3):
                rep = eb.entropy_poisson_large(lam, m, ctx)
                pairs = [("gap", rep.gap)] if what == "gaps" else [("lower", rep.lower), ("upper", rep.upper)]
                for column, want in pairs:
                    why = within_ulps(label, _parse(first[f"{column}_m{m}"], bits), want, bits)
                    if why:
                        return why
            return None
        point = Fraction(opts["--points"].split(",")[0])
        n = int(opts["--n"]) if "--n" in opts else None
        params = (point,) if what == "poisson-entropy" else (n, point)
        if command == "verify":
            if any(row["contained"] != "true" for row in rows):
                return f"{label}: a row is not contained"
            want = self.oracle(what, params, bits)  # verify judges at the same bits
            return within_ulps(label, _parse(first["oracle"], bits), want, bits)
        method = opts.get("--method")
        routine = {"poisson-entropy": {"large-lambda": "poisson-large", "small-lambda": "poisson-small",
                                       "cover-thomas": "poisson-ct"}.get(method),
                   "relative-entropy": "relative-entropy",
                   "binomial-entropy": {"corollary": "binomial-corollary",
                                        "stirling-m1": "binomial-stirling"}.get(method)}[what]
        order = opts.get("--m", "2")
        m = None if routine in wl.NO_ORDER_ROUTINES else ("auto" if order == "auto" else int(order))
        rep = self.bound(routine, params, m, bits)
        if routine == "poisson-ct":
            return within_ulps(label, _parse(first["upper"], bits), rep, bits)
        return (within_ulps(label, _parse(first["lower"], bits), rep.lower, bits)
                or within_ulps(label, _parse(first["upper"], bits), rep.upper, bits))


def reference_c(k: int, bits: int):
    """c(k) = sum_j (-1)^(k-1-j) C(k-1, j) log(j+1), summed with enough
    extra bits to absorb the 2^(k-1) cancellation."""
    with mpmath.workprec(bits + 2 * k + 64):
        total = mpmath.mpf(0)
        for j in range(k):
            total += (-1) ** (k - 1 - j) * comb(k - 1, j) * mpmath.log(j + 1)
        return total


def _parse(text: str, bits: int):
    with mpmath.workprec(bits + 64):
        return mpmath.mpf(text)


def _rows(stdout: str) -> list[dict]:
    text = stdout.lstrip()
    rows = json.loads(text) if text.startswith("[") else list(csv.DictReader(io.StringIO(stdout)))
    if not rows:
        raise ValueError("no rows")
    return rows


def _loglaurents(obj: dict) -> dict:
    return {int(k): ({int(e): Fraction(c) for e, c in v["terms"].items()}, Fraction(v["log"]))
            for k, v in obj.items()}


def _exact_terms(functions) -> dict:
    return {k: (dict(f.laurent.terms()), f.log_coeff) for k, f in functions.items()}


def run_cli(argv, env: dict, trace_out: str | None = None, op: int = -1,
            timeout: float = 120.0) -> tuple[int, str, str]:
    """One CLI command in a fresh interpreter: (exit code, stdout, stderr).

    Traced runs start the same CLI through a bootstrap that records spans.
    """
    if trace_out is None:
        cmd = [sys.executable, "-m", "entropy_bounds.cli", *argv]
    else:
        cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")), *argv]
        env = dict(env, PERFBENCH_TRACE_OUT=trace_out, PERFBENCH_OP=str(op),
                   PERFBENCH_LAUNCHED=repr(time.perf_counter()))
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def cli_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("ENTROPY_BOUNDS_BITS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env
