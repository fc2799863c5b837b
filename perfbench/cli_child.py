"""Run the blocko command line while sampling host speed, and optionally
with the per-layer tracer installed.

    BENCH_SLICES_OUT=FILE [BENCH_TRACE_OUT=FILE2] python3 perfbench/cli_child.py <blocko arguments>

Behaves like `python -m blocko.cli` (same stdout and exit code).  The
calibration slices (calibrate.py) start before blocko is imported, so that
import-bound commands are sampled too.  They and the time they took are
written to FILE, so that the caller can take that time out of the command's
and scale the rest by the host speed the command itself ran at.  With
BENCH_TRACE_OUT the command's per-layer counts, self times and import time
are written to FILE2.
"""

import json
import os
import sys
import time

import calibrate

sampler = calibrate.Sampler()
sampler.start()
start = time.perf_counter()
import blocko.cli  # noqa: E402

import_s = time.perf_counter() - start - sampler.spent


def main():
    trace_out = os.environ.get("BENCH_TRACE_OUT")
    tracer = None
    if trace_out:
        import tracer as tracing

        tracer = sampler.tracer = tracing.install(tracing.Tracer())
    try:
        code = blocko.cli.main(sys.argv[1:])
    finally:
        sampler.stop()
        with open(os.environ["BENCH_SLICES_OUT"], "w") as fh:
            json.dump({"slices": sampler.slices, "spent": sampler.spent}, fh)
    if tracer is not None:
        snap = tracer.snapshot()
        snap["counters"]["cli.import_s"] = import_s
        with open(trace_out, "w") as fh:
            json.dump(snap, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
