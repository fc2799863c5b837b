"""blocko benchmark: one command that runs a workload, checks its outputs
and prints every metric with its unit.

    python3 perfbench/run.py --workload kl_tables --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  A run repeats passes of the workload,
each in a fresh interpreter (`worker.py`) with PYTHONHASHSEED pinned and its
own BLOCKO_CACHE, so that no module-level cache or disk cache carries over.
The number of passes is the whole number nearest to --seconds divided by the
workload's nominal pass duration.  The first pass also runs the output
checks; every later pass must reproduce its output digests exactly.  Times
are scaled to a reference host speed measured next to them (calibrate.py).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
traced passes (see tracer.py), which alternate with untraced passes that
give the tracing overhead and must produce identical outputs.  The last
line of stdout is the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("kl_tables", "zmod_projectives", "cli_session")
BASELINE_SEED = 1
SETUP_SAMPLES = 3  # set-ups per run: one per pass, topped up by set-up-only starts
# pass duration (set-up included, reference-host seconds) at the seed commit;
# a run makes round(--seconds / this) passes, so both sides of a comparison
# measure the same work
NOMINAL_PASS_S = {"kl_tables": 12.5, "zmod_projectives": 9.5, "cli_session": 17.0}
RUN_LIMIT_S = 165  # every worker is stopped so that a run ends within this

CALLS_AND_SELF = (
    "coxeter.normal_form", "coxeter.bruhat_leq", "coxeter.lower_cone",
    "coxeter.elements_up_to", "coxeter.is_finite",
    "kl.poly", "kl.inverse_poly",
    "linalg.rref", "linalg.solve_many", "linalg.kernel_basis", "linalg.in_span",
    "zmod.structure_algebra", "zmod.minimal_generators", "zmod.theta_s",
    "zmod.hom_graded", "zmod.expand_many", "zmod.decompose",
    "poly.restrict_to_hyperplane", "rootdata.build_root_system", "blocks.block_data",
)


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for key in CALLS_AND_SELF:
        units[f"{key}.calls"] = "count"
        units[f"{key}.self_s"] = "s"
    units.update({
        "zmod.graded_char.self_s": "s",
        "poly.monomials_of_degree.calls": "count",
        "sympy.calls": "count",
        "sympy.self_s": "s",
        "kl.pairs_computed": "count",
        "kl.memo_hit_ratio": "ratio",
        "linalg.elim_cells": "count",
        "linalg.elim_max_cols": "count",
        "linalg.max_entry_bits": "bits",
        "cli.import_s": "s",
        "cli.kl_cache.load_s": "s",
        "cli.kl_cache.store_s": "s",
        "cli.kl_cache.entries_loaded": "count",
        "cli.kl_cache.bytes": "bytes",
    })
    for layer in tracer.LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
        units[f"layer.{layer}.share"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Byte-compile the library, as an installed package would be."""
    if not os.path.isfile(os.path.join(SRC, "blocko", "cli.py")):
        fail(f"no blocko sources under {SRC}; run from the root of a checkout")
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC], check=True,
                   stdout=subprocess.DEVNULL)


class Runner:
    def __init__(self, workload, seed, work):
        self.workload, self.seed, self.work = workload, seed, work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.count = 0

    def start(self, *flags):
        """One worker in a fresh interpreter; returns (result, set-up seconds)."""
        self.count += 1
        workdir = os.path.join(self.work, f"pass{self.count}")
        os.makedirs(workdir)
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0",
                   BLOCKO_CACHE=os.path.join(workdir, "cache"))
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--workdir", workdir, *flags]
        spawned = time.monotonic()
        # a session of its own, so that a stuck pass is stopped together with
        # the CLI commands it started
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"error": "pass exceeded the run's time limit"}, None
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"error": f"worker exit {proc.returncode}: {stderr[-500:]}"}, None
        result = json.loads(lines[-1])
        return result, (result["setup_end"] - spawned) * result["setup_factor"]


def run(args, work):
    runner = Runner(args.workload, args.seed, work)
    first, setup = runner.start("--check")
    if "error" in first:
        return report_broken(first["error"])
    passes = [(first, False)]
    setups = [setup]
    planned = max(2 if args.trace else 1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    for i in range(1, planned):
        traced = bool(args.trace) and i % 2 == 1
        result, setup = runner.start(*(["--trace"] if traced else []))
        passes.append((result, traced))
        if setup is not None and not traced:
            setups.append(setup)
    while not args.trace and len(setups) < SETUP_SAMPLES:
        result, setup = runner.start("--setup-only")
        if setup is None:
            return report_broken(result["error"])
        setups.append(setup)
    return summarize(args, first, passes, setups)


def report_broken(error):
    print(f"first pass failed: {error}")
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
    return 0


def summarize(args, first, passes, setups):
    names = [op[0] for op in first["ops"]]
    reference = first["digests"]
    attempted = failed = 0
    failures = {}
    latencies = []
    for result, traced in passes:
        if "error" in result:
            attempted += len(names)
            failed += len(names)
            failures.setdefault("(pass)", result["error"])
            continue
        for (name, seconds, _, error, factor), digest, want in zip(
                result["ops"], result["digests"], reference):
            attempted += 1
            reason = error or first["problems"].get(name)
            if reason is None and digest != want:
                reason = ("traced output differs from untraced" if traced
                          else "output differs from the checked pass")
            if reason is not None:
                failed += 1
                failures.setdefault(name, reason)
            if not traced:
                latencies.append(seconds * factor)
    for name, reason in failures.items():
        print(f"FAILED {name}: {reason}")
    plain = [r for r, traced in passes if not traced and "error" not in r]
    traced = [r for r, t in passes if t and "error" not in r]
    raw = statistics.median(sum(op[1] for op in r["ops"]) for r in plain)
    speed = statistics.median(r["pass_factor"] for r in plain)
    print(f"host-speed factor {speed:.3f}; unscaled run_s {raw:.3f} s")
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and {len(traced)} "
          f"traced passes, {len(latencies)} operation latencies, {len(setups)} set-ups, "
          f"{failed} of {attempted} operations failed")
    if args.trace:
        metrics = layer_metrics(args.workload, plain, traced)
    else:
        q = statistics.quantiles(latencies, n=10, method="inclusive")
        metrics = {
            "run_s": (statistics.median(pass_seconds(r, 1) for r in plain), "s"),
            "cpu_s": (statistics.median(pass_seconds(r, 2) for r in plain), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "op_p50_s": (statistics.median(latencies), "s"),
            "op_p90_s": (q[8], "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
            "ops_ok_frac": ((attempted - failed) / attempted, "ratio"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def pass_seconds(result, column):
    """Sum over a pass's operations of wall (1) or CPU (2) seconds, each
    scaled to the reference host (calibrate.py)."""
    return sum(op[column] * op[4] for op in result["ops"])


def reference_host(result):
    """A pass's trace with its seconds scaled to the reference host."""
    factor = result["pass_factor"]
    trace = result["trace"]
    return {
        "stats": {k: [calls, self_s * factor] for k, (calls, self_s) in trace["stats"].items()},
        "counters": {k: v * factor if k.endswith("_s") else v
                     for k, v in trace["counters"].items()},
    }


def layer_metrics(workload, plain, traced):
    """Per-pass means of the traced counts, and the tracing overhead."""
    if not traced:
        return {}
    mean = {"stats": {}, "counters": {}}
    for result in traced:
        tracer.merge(mean, reference_host(result), 1 / len(traced))
    stats, counters = mean["stats"], mean["counters"]
    layer_self = {layer: 0.0 for layer in tracer.LAYERS}
    for key, (_, self_s) in stats.items():
        layer_self[key.split(".")[0]] += self_s
    total = sum(layer_self.values()) or 1.0
    hits, computed = counters.get("kl.memo_hits", 0), counters.get("kl.pairs_computed", 0)
    values = {}
    for name, unit in per_layer_units().items():
        parts = name.split(".")
        if name.startswith("layer."):
            self_s = layer_self[parts[1]]
            value = self_s if parts[2] == "self_s" else self_s / total
        elif name == "trace.overhead_ratio":
            value = (statistics.median(pass_seconds(r, 1) for r in traced)
                     / statistics.median(pass_seconds(r, 1) for r in plain))
        elif name == "kl.memo_hit_ratio":
            value = hits / (hits + computed) if hits + computed else 0.0
        elif parts[0] == "sympy":
            picked = [v for k, v in stats.items() if k.startswith("sympy.")]
            value = sum(v[0 if parts[1] == "calls" else 1] for v in picked)
        elif parts[-1] in ("calls", "self_s") and ".".join(parts[:-1]) in stats:
            value = stats[".".join(parts[:-1])][0 if parts[-1] == "calls" else 1]
        else:
            value = counters.get(name, 0)
        values[name] = (value, unit)
    split = {
        "kl_tables": (("coxeter", "kl"), ("zmod", "linalg", "sympy"), 0.80, 0.05),
        "zmod_projectives": (("zmod", "linalg", "poly", "sympy"), ("coxeter", "kl"), 0.80, 0.05),
    }.get(workload)
    if split:
        mech, bypass, lo, hi = split
        m = sum(layer_self[x] for x in mech) / total
        b = sum(layer_self[x] for x in bypass) / total
        verdict = "holds" if m >= lo and b <= hi else "DOES NOT HOLD"
        print(f"layer split {verdict}: {'+'.join(mech)} {m:.1%} of self time (want >= {lo:.0%}), "
              f"{'+'.join(bypass)} {b:.1%} (want <= {hi:.0%})")
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    build()
    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(dir=scratch)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
