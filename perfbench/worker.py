"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR
        [--trace] [--check] [--setup-only]

Set-up (imports and building the seeded inputs) is followed by the timed
part: every operation once, in order, with host-speed calibration slices
taken during each operation (calibrate.py), inside the command's own
process for CLI commands (cli_child.py).  The last line of
stdout is a JSON object with each operation's wall and CPU seconds (slices
left out), error, host-speed factor and output digest, the problems the
output checks found (with --check), and the per-layer trace (with --trace).
`setup_end` is read from the monotonic clock, which on Linux is shared by
all processes, so the parent can take set-up time as the span from spawning
this process to that instant.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time

OP_LIMIT_S = 60
SETUP_SLICES = 10  # calibration slices that scale the set-up time


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"exceeded {OP_LIMIT_S} s")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # one core for the pass and the commands it starts, so that the host
    # speed sampled here is the speed the work runs at
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import blocko.cli  # noqa: F401  (the set-up cost a CLI user also pays)
    import calibrate
    import tracer as tracing
    import workloads

    # the CLI session is traced inside each command (cli_child.py), so that
    # the pass's own input generation is not counted
    in_process = args.workload != "cli_session"
    tracer = tracing.install(tracing.Tracer()) if args.trace and in_process else None
    here = os.path.dirname(os.path.abspath(__file__))
    ctx = {
        "workdir": args.workdir,
        "env": dict(os.environ),
        "cli_child": os.path.join(here, "cli_child.py"),
        "slices_out": os.path.join(args.workdir, "cli-slices.json"),
    }
    if args.trace and args.workload == "cli_session":
        ctx["trace_out"] = os.path.join(args.workdir, "cli-trace.json")
    ops = workloads.BUILDERS[args.workload](args.seed, ctx)
    setup_end = time.monotonic()
    sampler = calibrate.Sampler(tracer)
    for _ in range(SETUP_SLICES):
        sampler.sample()
    setup_factor = sampler.factor()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end, "setup_factor": setup_factor}))
        return

    signal.signal(signal.SIGALRM, _alarm)
    outputs, results, spans = [], [], []
    cli_stats = {"stats": {}, "counters": {}}
    if in_process:
        sampler.start()
    for op in ops:
        error = None
        spent0 = sampler.spent
        cpu0, child0 = time.process_time(), _children_cpu()
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        try:
            out = op.run()
        except Exception as exc:  # a failing operation is recorded, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        cpu = time.process_time() - cpu0 + _children_cpu() - child0
        sampled = sampler.spent - spent0  # slices run inside the operation
        if os.path.exists(ctx["slices_out"]):  # or inside its CLI command
            with open(ctx["slices_out"]) as fh:
                child = json.load(fh)
            os.remove(ctx["slices_out"])
            sampler.slices.extend(map(tuple, child["slices"]))
            sampled += child["spent"]
        results.append([op.name, end - start - sampled, cpu - sampled, error])
        spans.append((start, end))
        outputs.append(out)
        if ctx.get("trace_out") and os.path.exists(ctx["trace_out"]):
            with open(ctx["trace_out"]) as fh:
                tracing.merge(cli_stats, json.load(fh))
            os.remove(ctx["trace_out"])
    sampler.stop()
    for result, (start, end) in zip(results, spans):
        result.append(sampler.factor(start, end))
    own = resource.getrusage(resource.RUSAGE_SELF)
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    # a subprocess workload's memory is that of its largest command
    rss_kb = own.ru_maxrss if in_process else child.ru_maxrss
    trace = None
    if args.trace:
        trace = tracer.snapshot() if tracer is not None else cli_stats

    problems = {}
    digests = []
    for op, out, result in zip(ops, outputs, results):
        if result[3] is not None:
            digests.append(None)
            continue
        digests.append(op.digest(out))
        if args.check:
            try:
                found = op.check(out)
            except Exception as exc:  # a check that cannot run fails its op
                found = [f"check raised {type(exc).__name__}: {exc}"]
            if found:
                problems[op.name] = found[:5]

    print(json.dumps({
        "setup_end": setup_end,
        "setup_factor": setup_factor,
        "pass_factor": sampler.factor(),
        "peak_rss_mb": rss_kb / 1024,
        "ops": results,
        "digests": digests,
        "problems": problems,
        "trace": trace,
    }))


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


if __name__ == "__main__":
    sys.exit(main())
