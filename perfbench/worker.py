"""One benchmark process: set up, report readiness, run the timed phase, check.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

Started by run.py in a fresh interpreter.  It prints ``ready <clock>`` as
soon as the program is imported and warmed up, so the parent can time
set-up, then (without --setup-only) one JSON line with the raw results of
the timed phase and its checks.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# the reference kernel runs between ops about this often
KERNEL_EVERY_S = 0.05
# a run goes on past its seconds until it has this many ops, so that ten
# latencies lie beyond p90, but never past three times its seconds
MIN_OPS = 100


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if workload == "cli-cold":
        # a CLI user pays for the interpreter and this import, nothing else
        import entropy_bounds.cli  # noqa: F401
    else:
        import entropy_bounds

        from harness import Harness

        Harness(entropy_bounds, workload, seed).warm_up()
    print(f"ready {time.perf_counter()!r}", flush=True)
    if "--setup-only" in argv[4:]:
        return 0
    import json

    from harness import Harness

    runner = Harness(sys.modules["entropy_bounds"], workload, seed)
    print(json.dumps(timed_phase(runner, seconds, trace)))
    return 0


def reference_kernel() -> None:
    """Fixed arithmetic in the program's style (mpmath at 256 bits, exact
    fractions) that shares no code with it.  Its time tracks the speed of
    the machine during the run."""
    from fractions import Fraction

    import mpmath

    with mpmath.workprec(256):
        acc = mpmath.mpf(0)
        for i in range(2, 60):
            acc += mpmath.log(i) * i / 7
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i, i + 1)


def timed_phase(runner, seconds: float, trace: bool) -> dict:
    import json
    import platform
    import resource
    import statistics

    import mpmath

    import harness as hn
    import workloads as wl
    from tracing import LAYERS, Tracer, cache_counts, coefficient_caches

    eb = runner.eb
    workload = runner.workload
    cli = workload == "cli-cold"
    env = hn.cli_env() if cli else None
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    op_list = wl.ops(workload, runner.seed)

    tracer = Tracer() if trace else None
    caches = coefficient_caches()
    hits0, misses0 = cache_counts(caches)
    if tracer and not cli:
        tracer.install()

    reference_kernel()  # its first run also computes mpmath's constants
    latencies, kernel_s, done, raised = [], [], [], {}
    clock = time.perf_counter
    start = end = next_kernel = clock()
    deadline = start + seconds
    for index, op in enumerate(op_list):
        now = clock()
        if now >= deadline and (index >= MIN_OPS or now >= start + 3 * seconds):
            break
        if now >= next_kernel:
            reference_kernel()
            kernel_s.append(clock() - now)
            next_kernel = now + KERNEL_EVERY_S
        if tracer:
            tracer.op = index
        child_trace = os.path.join(out_dir, f"cli-{index}.json") if cli and tracer else None
        began = clock()
        try:
            out = hn.run_cli(op[1], env, child_trace, index) if cli else runner.execute(op)
        except Exception as exc:  # a failed op is counted, and the loop goes on
            raised[index] = f"{op!r}: {type(exc).__name__}: {exc}"
        else:
            kept = runner.record(index, op, out)
            if kept is not None:
                done.append((index, op, kept))
        end = clock()
        latencies.append(end - began)

    usage = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
    result = {
        "environment": {
            "python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": os.cpu_count(),
            "default_bits": eb.DEFAULT_CONTEXT.bits,
        },
        "busy_s": end - start - sum(kernel_s),
        "kernel_s": statistics.median(kernel_s),
        "kernel_runs": len(kernel_s),
        "latencies_s": latencies,
        "peak_rss_mb": peak_rss_mb,
    }

    if tracer:
        tracer.uninstall()
        hits1, misses1 = cache_counts(caches)
        hits, misses = hits1 - hits0, misses1 - misses0
        startups = []
        if cli:
            for index, _, _ in done:
                path = os.path.join(out_dir, f"cli-{index}.json")
                if not os.path.exists(path):  # the child died before writing
                    continue
                with open(path, encoding="utf-8") as fh:
                    child = json.load(fh)
                os.remove(path)
                tracer.merge(child["totals"], child["spans"])
                startups.append(child["startup_s"])
                hits += child["cache"][0]
                misses += child["cache"][1]
        tracer.write_csv(os.path.join(out_dir, f"trace-{workload}.csv"))
        n = len(latencies)
        layers = {}
        for layer in LAYERS:
            layers[f"{layer}.calls"] = tracer.calls[layer] / n
            layers[f"{layer}.self_s"] = tracer.self_s[layer] / n
            layers[f"{layer}.errors"] = tracer.errors[layer]
        layers["coefficients.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        layers["oracle.terms_per_call"] = (
            tracer.oracle_terms / tracer.oracle_calls if tracer.oracle_calls else 0.0
        )
        layers["cli.startup_s"] = statistics.fmean(startups) if startups else 0.0
        result["layers"] = layers

    failures = dict(raised)
    failures.update(runner.check(done))
    result["rounding_misses"] = runner.rounding_misses
    if tracer:
        result["layers"]["bounds.rounding_misses"] = runner.rounding_misses
    result["attempted"] = len(latencies)
    result["failed"] = len(failures)
    result["failures"] = [failures[i] for i in sorted(failures)][:10]
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
