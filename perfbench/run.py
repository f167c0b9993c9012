"""Benchmark of entropy_bounds: four seeded, closed-loop workloads.

    python3 perfbench/run.py --workload tabulate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from the repository root.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs the workload twice, untraced and traced, and
reports the per-layer metrics and the tracing overhead.  ``--seed holdout``
selects the seed kept back for re-checking claims.  Human-readable lines
come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HOLDOUT_SEED = 2010
SETUP_LAUNCHES = 5  # set-up is timed over this many fresh interpreters
RUN_LIMIT_S = 170.0
# Times are reported at a nominal machine speed: the one at which the
# worker's reference kernel takes NOMINAL_KERNEL_S.  Shared machines change
# speed by tens of percent over minutes as neighbours come and go, and the
# kernel's time in the same run measures that.  The program's time moves
# only about as the square root of the kernel's (a log-log fit over paired
# runs of tabulate and derive-cold gave an exponent of 0.5), so times are
# scaled by the square root of the ratio: full scaling overcorrected.
NOMINAL_KERNEL_S = 0.00075
SPEED_EXPONENT = 0.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **{f"{layer}.calls": "1/op" for layer in LAYERS},
    **{f"{layer}.self_s": "s/op" for layer in LAYERS},
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "coefficients.cache_hit_ratio": "ratio",
    "oracle.terms_per_call": "1/call",
    "cli.startup_s": "s",
    "tracing.overhead_ms": "ms/op",
    "bounds.rounding_misses": "count",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with q% at or below it."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(math.ceil(q / 100 * len(sorted_values)), 1)
    return sorted_values[rank - 1]


def latency_summary(latencies_s: list[float]) -> dict:
    """p50 and p90 in ms over every sample, with the count they rest on."""
    ms = sorted(x * 1000 for x in latencies_s)
    n = len(ms)
    return {
        "count": n,
        "p50": percentile(ms, 50),
        "p90": percentile(ms, 90),
        "beyond_p90": n - max(math.ceil(0.9 * n), 1),
    }


class Clock:
    def __init__(self, limit_s: float) -> None:
        self.deadline = time.perf_counter() + limit_s

    def left(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise BenchError("time limit reached")
        return left


def launch(workload: str, seed: int, seconds: float, trace: bool, setup_only: bool,
           clock: Clock) -> tuple[float, dict | None]:
    """Start a worker; return its set-up time and, unless set-up only, its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), repr(seconds),
           "1" if trace else "0"] + (["--setup-only"] if setup_only else [])
    launched = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=clock.left())
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker did not finish in time") from None
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise BenchError(f"{workload} worker failed with exit code {proc.returncode}")
    setup_s = float(lines[0].split()[1]) - launched
    if setup_only:
        return setup_s, None
    if len(lines) < 2:
        raise BenchError(f"{workload} worker printed no result")
    return setup_s, json.loads(lines[-1])


def speed(raw: dict) -> float:
    """Factor that turns the run's times into times at the nominal speed."""
    return (NOMINAL_KERNEL_S / raw["kernel_s"]) ** SPEED_EXPONENT


def measure(workload: str, seed: int, seconds: float, clock: Clock) -> dict:
    setups = [launch(workload, seed, seconds, False, True, clock)[0]
              for _ in range(SETUP_LAUNCHES - 1)]
    setup_s, raw = launch(workload, seed, seconds, False, False, clock)
    setups.append(setup_s)
    scale = speed(raw)
    lat = latency_summary([x * scale for x in raw["latencies_s"]])
    values = {
        "setup_s": statistics.median(setups) * scale,
        "ops_per_s": raw["attempted"] / (raw["busy_s"] * scale),
        "latency_p50_ms": lat["p50"],
        "latency_p90_ms": lat["p90"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} launches, {statistics.median(setups):.4g} s as timed",
        "ops_per_s": f"{raw['attempted']} ops in {raw['busy_s']:.2f} s as timed",
        "latency_p50_ms": f"n={lat['count']}",
        "latency_p90_ms": f"n={lat['count']}, {lat['beyond_p90']} beyond",
        "peak_rss_mb": "children's maximum" if workload == "cli-cold" else "worker process",
    }
    return {"raw": raw, "values": values, "notes": notes, "units": END_TO_END_UNITS}


def measure_traced(workload: str, seed: int, seconds: float, clock: Clock) -> dict:
    _, plain = launch(workload, seed, seconds, False, False, clock)
    _, raw = launch(workload, seed, seconds, True, False, clock)
    scale = speed(raw)
    values = dict(raw["layers"])
    for name in values:
        if name.endswith("_s"):
            values[name] *= scale
    # both processes start from the same op list, so compare the shared prefix
    shared = min(len(plain["latencies_s"]), len(raw["latencies_s"]))
    traced_s = sum(raw["latencies_s"][:shared]) * scale
    plain_s = sum(plain["latencies_s"][:shared]) * speed(plain)
    values["tracing.overhead_ms"] = (traced_s - plain_s) / shared * 1000
    notes = {name: f"over {raw['attempted']} traced ops" for name in values}
    notes["tracing.overhead_ms"] = f"traced minus untraced, first {shared} ops"
    notes["bounds.rounding_misses"] = "intervals off the oracle by no more than their rounding"
    return {"raw": raw, "values": values, "notes": notes, "units": PER_LAYER_UNITS}


def report(workload: str, seed: int, result: dict) -> None:
    raw = result["raw"]
    env = raw["environment"]
    print(f"environment: python {env['python']}, mpmath {env['mpmath']} "
          f"(backend {env['mpmath_backend']}), nproc {env['nproc']}, "
          f"default bits {env['default_bits']}")
    print(f"{workload} seed={seed}: {raw['attempted']} ops attempted, {raw['failed']} failed, "
          f"error_rate {raw['failed'] / raw['attempted']:.6g}")
    print(f"  {raw['rounding_misses']} intervals miss the oracle by no more than their "
          f"round-to-nearest slack (counted, not failed)")
    print(f"  times scaled by {speed(raw):.4f} to the nominal speed (reference kernel "
          f"{raw['kernel_s'] * 1000:.4f} ms, median of {raw['kernel_runs']} runs)")
    for name, value in result["values"].items():
        print(f"  {name:<30} {value:>14.6g} {result['units'][name]:<6} ({result['notes'][name]})")
    for why in raw["failures"]:
        print(f"  failed: {why}")


def seed_arg(text: str) -> int:
    return HOLDOUT_SEED if text == "holdout" else int(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=seed_arg,
                        help=f"integer seed, or 'holdout' for seed {HOLDOUT_SEED}")
    parser.add_argument("--seconds", type=float, default=20.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "entropy_bounds" / "__init__.py").is_file():
        print(f"perfbench: no entropy_bounds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    clock = Clock(RUN_LIMIT_S * len(chosen))
    measure_fn = measure_traced if args.trace else measure
    attempted = failed = 0
    metrics = {}
    try:
        for workload in chosen:
            result = measure_fn(workload, args.seed, args.seconds, clock)
            report(workload, args.seed, result)
            attempted += result["raw"]["attempted"]
            failed += result["raw"]["failed"]
            prefix = f"{workload}." if args.workload == "all" else ""
            for name, value in result["values"].items():
                metrics[prefix + name] = {"value": value, "unit": result["units"][name]}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
