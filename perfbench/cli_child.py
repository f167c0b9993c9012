"""Traced stand-in for ``python -m entropy_bounds.cli ARGS``.

Imports the CLI, records how long the interpreter took to get there, then
runs ``main`` with every layer traced and writes the spans and totals to
``$PERFBENCH_TRACE_OUT`` as JSON.  ``time.perf_counter`` reads the
system-wide monotonic clock on Linux, so the launch time the parent passes
in ``$PERFBENCH_LAUNCHED`` is comparable with the clock here.
"""

import os
import sys
import time


def main() -> int:
    import entropy_bounds.cli

    startup_s = time.perf_counter() - float(os.environ["PERFBENCH_LAUNCHED"])

    import json

    from tracing import Tracer, cache_counts, coefficient_caches

    caches = coefficient_caches()
    hits0, misses0 = cache_counts(caches)
    tracer = Tracer()
    tracer.op = int(os.environ["PERFBENCH_OP"])
    tracer.install()
    code = 1
    try:
        code = entropy_bounds.cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse rejects bad usage this way
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
        hits1, misses1 = cache_counts(caches)
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump({"startup_s": startup_s, "cache": [hits1 - hits0, misses1 - misses0],
                       "totals": tracer.totals(), "spans": tracer.spans()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
