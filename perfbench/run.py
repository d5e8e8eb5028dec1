"""hsswitness benchmark: one workload per invocation, metrics on the last line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload {bath_sweep,rtn_sweep,cli_batch}
                             --seed N --seconds S --trace {0,1}

The program is imported from ``src/`` of the checkout.  The run sets up
(``setup_s``: fresh processes importing ``hsswitness`` and
``hsswitness.cli`` and building the seeded inputs, median of several),
then runs whole cycles of the workload's mix until ``--seconds`` of
operation time have passed, then checks outputs against the oracles in
``oracles.py`` outside the timed region.  ``--trace 1`` instead runs one
cycle untraced and the same cycle traced (see ``tracer.py``) and reports
the per-layer metrics.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("bath_sweep", "rtn_sweep", "cli_batch")
#: fresh processes timed for setup_s, after one warm-up
SETUP_SAMPLES = 3
#: reference kernel of each workload's timing (see clock.py)
REFERENCE = {"bath_sweep": "array", "rtn_sweep": "interpreter",
             "cli_batch": "interpreter"}
#: series before a 90th percentile has ten samples beyond it
P90_MIN_SAMPLES = 100


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# --- set-up -----------------------------------------------------------------------

def probe_setup(args):
    """Child side of setup_s: import the program and build the inputs."""
    t0 = time.perf_counter()
    import hsswitness  # noqa: F401
    import hsswitness.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    import workloads
    ops = workloads.make_cycle(args.workload, args.seed, 0)
    if args.workload == "cli_batch":
        [workloads.config_json(op) for op in ops if op.argv[0] == "run"]
    else:
        workloads.build_series_inputs(ops)
    print(json.dumps({"import_s": import_s}))
    return 0


def measure_setup(args, clock):
    """Median (reference s, raw s, import s) over fresh set-up processes."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0"]
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        res, raw, span = clock.time(functools.partial(
            subprocess.run, argv, capture_output=True, text=True, timeout=120,
            cwd=ROOT, check=True), during=False)
        if k:  # the first one warms the bytecode and file caches
            imp = json.loads(res.stdout.splitlines()[-1])["import_s"]
            samples.append((raw, span, imp))
    refs = [clock.reference(raw, span) for raw, span, _ in samples]
    return (statistics.median(refs), statistics.median(s[0] for s in samples),
            statistics.median(s[2] for s in samples))


# --- environment report ------------------------------------------------------------

def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def machine_line():
    import numpy
    import scipy
    return (f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"git={git_sha()}")


def workload_why(name):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return next(w["why"] for w in spec["workloads"] if w["name"] == name)
    except (OSError, ValueError, KeyError, StopIteration):
        return "(BENCHMARK.json not found)"


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# --- timed runs ------------------------------------------------------------------------

def clear_gamma_cache():
    """Empty the library's Γ memo, where it still has one, as a new process would."""
    from hsswitness import dynamics
    cache = getattr(dynamics, "_gamma_cached", None)
    if hasattr(cache, "cache_clear"):
        cache.cache_clear()


def run_series_workload(args, clock):
    import numpy as np
    import workloads as wl
    rng = np.random.default_rng([args.seed, 1_000_003])
    done, checked, busy, k = [], [], 0.0, 0
    while busy < args.seconds:
        ops = wl.make_cycle(args.workload, args.seed, k)
        for op, scenario in zip(ops, wl.build_series_inputs(ops)):
            series = wl.run_series(op, scenario, clock)
            busy += op.seconds
            if series is not None and len(checked) < wl.MAX_CHECKED:
                checked.append((op, wl.sample_points(series, rng)))
        done += ops
        k += 1
    for op, points in checked:
        wl.check_series(op, points)
    return done, k


def run_cli_workload(args, tmp, clock):
    import numpy as np
    import workloads as wl
    rng = np.random.default_rng([args.seed, 1_000_003])
    env = wl.cli_env(str(ROOT))
    done, busy, k = [], 0.0, 0
    while busy < args.seconds:
        ops = wl.make_cycle(args.workload, args.seed, k)
        wl.write_configs(ops, tmp)
        for op in ops:
            wl.run_subprocess(op, tmp, env, clock)
            busy += op.seconds
            wl.check_cli(op, tmp, rng)
        done += ops
        k += 1
    done += determinism_checks(done, tmp, env, clock)
    return done, k


def determinism_checks(ops, tmp, env, clock):
    """Rerun one config (same bytes) and one oracle-dn with 2 workers (same text)."""
    import workloads as wl
    extra = []
    last = {op.label: op for op in ops}
    cfg = last["composite-1"]
    if cfg.exit == 0:
        before = wl.file_bytes(tmp, cfg.label)
        rerun = wl.Op(cfg.label, cfg.spec, cfg.p, cfg.tau_max, cfg.grid_points,
                      argv=cfg.argv)
        wl.run_subprocess(rerun, tmp, env, clock)
        same = rerun.exit == 0 and wl.file_bytes(tmp, cfg.label) == before
        rerun.checks.append(("rerun-byte-identical", 0.0 if same else math.inf, 0.0))
        rerun.label = "rerun-" + cfg.label
        extra.append(rerun)
    dn = last["oracle-dn-slow"]
    workers = min(2, os.cpu_count() or 1)
    again = wl.Op(f"oracle-dn-workers{workers}", dn.spec, argv=dn.argv)
    wl.run_subprocess(again, tmp, wl.cli_env(str(ROOT), workers), clock)
    same = again.exit == 0 and again.stdout == dn.stdout
    again.checks.append(("workers-identical", 0.0 if same else math.inf, 0.0))
    extra.append(again)
    return extra


# --- traced run -------------------------------------------------------------------------

def traced_run(args, tmp):
    """Cycle 0 with each operation run untraced and then traced, then
    operation 0 traced once more to check that its call counts repeat.

    Running the two versions of each operation back to back lets them see
    the same machine speed, so that their difference is the tracing overhead.
    """
    import numpy as np
    import workloads as wl
    from clock import PlainClock
    from tracer import Tracer
    rng = np.random.default_rng([args.seed, 1_000_003])
    cli = args.workload == "cli_batch"
    cycle = wl.make_cycle(args.workload, args.seed, 0)
    if cli:
        wl.write_configs(cycle, tmp)
        inputs = [None] * len(cycle)
    else:
        inputs = wl.build_series_inputs(cycle)

    def run_op(i, tracer):
        op = wl.make_cycle(args.workload, args.seed, 0)[i]
        clear_gamma_cache()
        if tracer is not None:
            tracer.series = i
            tracer.install()
        try:
            if cli:
                return op, wl.run_inprocess(op, tmp)
            return op, wl.run_series(op, inputs[i], PlainClock())
        finally:
            if tracer is not None:
                tracer.uninstall()

    tracer = Tracer()
    plain, ops, results = [], [], []
    for i in range(len(cycle)):
        plain.append(run_op(i, None)[0])
        op, result = run_op(i, tracer)
        ops.append(op)
        results.append(result)
    again = Tracer()
    run_op(0, again)
    first, second = tracer.counts_of_series(0), again.counts_of_series(0)
    repeat = wl.Op("trace-counts-repeat", argv=["trace"])
    repeat.exit = 0
    repeat.checks.append(("trace-counts-repeat", 0.0 if first == second
                          else math.inf, 0.0))
    for op, result in zip(ops, results):
        if cli:  # the traced run of each operation wrote its outputs last
            wl.check_cli(op, tmp, rng)
        elif result is not None:
            wl.check_series(op, wl.sample_points(result, rng))
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
    untraced = sum(op.seconds for op in plain)
    traced = sum(op.seconds for op in ops)
    return ops + [repeat], tracer, untraced, traced


# --- report ----------------------------------------------------------------------------

def failure_summary(ops):
    reasons = {}
    for op in ops:
        if op.failed:
            key = op.failure_reason()
            reasons[key] = reasons.get(key, 0) + 1
    return reasons


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def report(args, ops, cycles, setup, extra_lines, metrics):
    import oracles
    failed = [op for op in ops if op.failed]
    checks = [c for op in ops for c in op.checks]
    bad_checks = [c for op in ops for c in oracles.failed(op.checks)]
    out = [machine_line(),
           f"workload {args.workload}: {workload_why(args.workload)}",
           f"load: closed loop, one caller, {len(ops)} operations in "
           f"{cycles} cycle(s), seed {args.seed}",
           f"setup: median of {SETUP_SAMPLES} fresh processes {setup[0]:.4f} "
           f"reference s, {setup[1]:.4f} raw s, of which import {setup[2]:.4f} s"]
    out += extra_lines
    for name, (value, unit) in metrics.items():
        out.append(f"{name} = {value:.6g} {unit}")
    out.append(f"failed_frac = {len(failed)}/{len(ops)} = "
               f"{len(failed) / len(ops):.4f} ratio")
    for reason, n in sorted(failure_summary(ops).items()):
        out.append(f"  failed x{n}: {reason}")
    out.append(f"checks: {len(checks) - len(bad_checks)} passed, "
               f"{len(bad_checks)} failed"
               + (f" ({', '.join(sorted(set(bad_checks)))})" if bad_checks else ""))
    for line in out:
        print(line)
    result = {"correct": bool(checks) and not bad_checks,
              "attempted": len(ops), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))


def untraced_metrics(args, ops, setup):
    # a failed operation has no latency, but its time still counts as busy;
    # an invalid config computes no series
    series_ops = [op for op in ops if not op.failed and op.expect == 0 and (
        op.is_series or op.argv[0] == "run" and not op.label.startswith("rerun-"))]
    times = [op.seconds for op in series_ops]
    timed = [op for op in ops if not op.label.startswith(
        ("rerun-", "oracle-dn-workers"))]
    busy = sum(op.seconds for op in timed)
    raw_busy = sum(op.raw_seconds for op in timed)
    metrics = {
        "setup_s": (setup[0], "s"),
        "series_s_p50": (statistics.median(times), "s"),
        "points_per_s": (sum(op.points for op in series_ops) / busy, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    lines = [f"timed: {raw_busy:.3f} raw s ({busy:.3f} reference s) of "
             f"operations, {len(times)} series; raw series_s_p50 "
             f"{statistics.median(op.raw_seconds for op in series_ops):.6g} s; "
             f"times below are in reference s (see clock.py)"]
    if len(times) >= P90_MIN_SAMPLES:
        lines.append(f"series_s_p90 = {quantile(times, 90):.6g} s "
                     f"(n={len(times)})")
    else:
        lines.append(f"series_s_p90: not reported, {len(times)} series < "
                     f"{P90_MIN_SAMPLES}")
    if args.workload == "cli_batch":
        lines.append(f"cli_run_s_p50 = {statistics.median(times):.6g} s "
                     f"(n={len(times)}; equals series_s_p50 on this workload)")
        val = [op.seconds for op in ops if op.label == "validate"]
        lines.append(f"validate_s = {statistics.median(val):.6g} s (n={len(val)})")
        dn = [op.seconds for op in ops if op.label.startswith("oracle-dn-")
              and "workers" not in op.label]
        lines.append(f"oracle_dn_s = {sum(dn) / (len(dn) / 2):.6g} s "
                     f"(both regimes, mean of {len(dn) // 2} cycle(s))")
    return metrics, lines


def traced_metrics(args, tracer, untraced, traced, setup):
    from tracer import LAYERS, layer_metrics
    m = layer_metrics(tracer)
    m["cli.import_s"] = (setup[2], "s")
    self_sum = sum(m[f"{layer}.self_s"][0] for layer in LAYERS)
    m["trace.untraced_s"] = (untraced, "s")
    m["trace.traced_s"] = (traced, "s")
    m["trace.overhead_s"] = (traced - untraced, "s")
    m["trace.self_sum_s"] = (self_sum, "s")
    lines = [f"trace: {len(tracer.names)} wrapped functions; absent: "
             f"{', '.join(tracer.absent) or 'none'}",
             f"trace: self times sum {self_sum:.4f} s = untraced {untraced:.4f} s "
             f"+ {self_sum - untraced:.4f} s; tracing overhead "
             f"{traced - untraced:.4f} s"]
    for layer in LAYERS:
        share = m[f"{layer}.self_s"][0] / self_sum if self_sum else 0.0
        lines.append(f"trace: {layer} self {m[f'{layer}.self_s'][0]:.4f} s "
                     f"({100 * share:.1f} % of self time)")
    bg = m["dynamics.bath_gamma_calls"][0]
    lines.append(f"trace: gamma cache hit ratio "
                 f"{m['dynamics.gamma_cache_hit_ratio'][0]:.4f} of {bg} "
                 f"bath_gamma calls")
    for kind, n in sorted(tracer.error_kinds.items()):
        lines.append(f"trace: error x{n} {kind[:160]}")
    return m, lines


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "hsswitness" / "__init__.py").is_file():
        print(f"error: no hsswitness sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.probe_setup:
        return probe_setup(args)
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    # one vCPU for this process and its subprocesses, so that the reference
    # samples see the core the measured work runs on (see clock.py)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from clock import SpeedClock
    with SpeedClock("interpreter") as clock:
        setup = measure_setup(args, clock)
    import hsswitness.cli  # noqa: F401
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.trace:
            ops, tracer, untraced, traced = traced_run(args, tmp)
            metrics, lines = traced_metrics(args, tracer, untraced, traced, setup)
            cycles = 1
        else:
            with SpeedClock(REFERENCE[args.workload]) as clock:
                if args.workload == "cli_batch":
                    ops, cycles = run_cli_workload(args, tmp, clock)
                else:
                    ops, cycles = run_series_workload(args, clock)
            for op in ops:  # now with the samples after each operation too
                op.seconds = clock.reference(op.raw_seconds, op.span)
            metrics, lines = untraced_metrics(args, ops, setup)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    report(args, ops, cycles, setup, lines, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
