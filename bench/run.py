"""Benchmark of revreact: one workload as a closed loop of one caller.

Run from the root of a checkout:

    python3 bench/run.py --workload full_1d --seed 1 --seconds 28 --trace 0

Workloads are described in bench/workloads.py.  Operations run one after
another in this process, each starting when the previous one has finished,
until the next would end past --seconds (at least one always runs); the
set-up runs are interleaved with the first operations and count towards
--seconds.  Outputs go to a temporary directory under .bench_out/ in the
checkout, removed at exit.

--trace 0 reports the end-to-end metrics:
  wall_s       median wall time of one operation, corrected for the speed of
               the machine at that moment: each operation's time is scaled by
               CAL_REF_S over the mean of the calibrate() times measured just
               before and just after it.  calibrate() runs no revreact code, so
               a change to revreact moves wall_s as it moves the raw time; the
               raw median is in the record as wall_raw_s.  On a shared host the
               raw times of consecutive runs differ by up to a third.
  setup_s      median, over fresh interpreters, of importing revreact.cli and
               running parse_config, build_domain and build_initial (verify:
               importing revreact.verify), timed from spawn until done
  peak_rss_mb  peak resident memory of this process
  ok_frac      operations that passed every check, over operations attempted
               (one minus the failed fraction, which would read 0)

--trace 1 alternates untraced and traced operations and reports the
per-layer metrics of the traced ones (medians), spans recorded around calls
into revreact's public functions (bench/tracing.py).  Layers a workload does
not exercise read 0; metrics whose probe target no longer exists are left
out.

An operation fails when cmd_run, cmd_analyze or cmd_verify exits non-zero,
verify prints a FAIL line, the CSV fails bench/workloads.py:check_csv, or an
exception escapes.  The last stdout line is the JSON result; the line before
it records the machine, the workload's size and the exact counts.
"""
from __future__ import annotations

import argparse
import contextlib
import glob
import io
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
import traceback

import workloads
from tracing import Tracer

ROOT = os.path.dirname(workloads.BENCH_DIR)

SETUP_REPEATS = 5

#: calibrate()'s wall time on the machine the benchmark was defined on (Intel
#: Xeon, 2 vCPUs, Python 3.11, numpy 2.4, scipy 1.17); it only sets the scale
#: of wall_s
CAL_REF_S = 0.15

#: imports and builds the initial state the way a user's fresh process does,
#: then prints the wall-clock time at which it finished
SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
from revreact import cli
if len(sys.argv) > 2:
    cfg = cli.parse_config(sys.argv[2])
    domain, grid = cli.build_domain(cfg)
    cli.build_initial(cfg, grid, domain)
else:
    import revreact.verify
print(time.time())
"""

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: metric name suffix -> unit; names matching none are counts
_UNITS = (("_per_s", "1/s"), ("_us", "us"), ("_s", "s"), ("_mb", "MB"),
          ("_bytes", "B"), ("_frac", "frac"), ("_share", "frac"))


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in _UNITS if name.endswith(suffix)), "count")


def fingerprint() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        with contextlib.suppress(OSError):
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
            if level in ("2", "3"):
                caches[f"L{level}"] = size
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **caches,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def time_setup(workload, out_dir: str) -> float:
    """Seconds from spawning a fresh interpreter until SETUP_CHILD has finished.

    The child reports its own finishing time, so the parent's polling while
    it waits for the exit does not add to the measurement.
    """
    argv = [sys.executable, "-c", SETUP_CHILD, os.path.join(ROOT, "src")]
    if workload.config is not None:
        argv.append(workload.config_for(out_dir))
    start = time.time()
    proc = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True,
                          timeout=120)
    return float(proc.stdout.split()[-1]) - start


def calibrate() -> float:
    """Wall time of a fixed mix of scalar Python, small-array numpy and 3-D DCT
    work that uses no revreact code: a gauge of the machine's current speed.

    The mix stands for the three kinds of work the workloads do: the RK4
    oracle's scalar loop, the 1-D stepper's per-call dispatch and the 3-D
    transforms.
    """
    import numpy as np
    import scipy.fft

    rng = np.random.default_rng(0)
    line, cube = rng.random(128) + 0.5, rng.random((48, 12, 12))
    start = time.perf_counter()
    a, b, c = 1.0, 0.5, 0.25
    for _ in range(200000):
        w = c - a * b
        a, b, c = a + 1e-4 * w, b + 1e-4 * w, c - 1e-4 * w
    for _ in range(2000):
        u = scipy.fft.idct(scipy.fft.dct(line, type=2, norm="ortho") * 0.5, type=2, norm="ortho")
        np.where(u > 0.0, np.exp(-u), np.sqrt(line))
    for _ in range(200):
        scipy.fft.idctn(scipy.fft.dctn(cube, type=2, norm="ortho"), type=2, norm="ortho")
    return time.perf_counter() - start


def _per_call_us(fn, batches: int = 7, batch_s: float = 0.02) -> float:
    """Median per-call time of fn over batches of calls lasting about batch_s."""
    fn()
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - start >= batch_s:
            break
        n *= 2
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - start) / n)
    return statistics.median(samples) * 1e6


def kernel_probes(cli, workload, out_dir: str) -> dict:
    """Per-step cost of one full diffusion step and one reaction substep on
    the workload's own grid and initial fields."""
    if workload.config is None:
        return {"solver.diffusion_apply_us": 0.0, "solver.reaction_substep_us": 0.0}
    from revreact import solver

    cfg = cli.parse_config(workload.config_for(out_dir))
    domain, grid = cli.build_domain(cfg)
    fields = cli.build_initial(cfg, grid, domain)
    species = (fields.a, fields.b, fields.c)

    def diffusion():
        ops = [solver.DiffusionSemigroup(grid, d, cfg.dt) for d in (cfg.d_a, cfg.d_b, cfg.d_c)]
        return lambda: [op.apply(u) for op, u in zip(ops, species)]

    def reaction():
        react = solver.reaction_substep
        return lambda: react(fields, cfg.dt)

    out = {}
    for name, build in (("solver.diffusion_apply_us", diffusion),
                        ("solver.reaction_substep_us", reaction)):
        try:
            call = build()
        except (AttributeError, TypeError):  # the probed name is gone or changed
            continue
        out[name] = _per_call_us(call)
    return out


class Operation:
    """One user-level operation of a workload and the checks on its outputs."""

    def __init__(self, cli, workload, out_dir: str):
        self.cli = cli
        self.workload = workload
        self.out_dir = out_dir
        self.csv_path = os.path.join(out_dir, "timeseries.csv")
        self.first_csv = None

    def __call__(self):
        """Run once; returns (wall seconds, failure reasons, output record)."""
        cli, wl = self.cli, self.workload
        output = io.StringIO()
        codes, cfg, error = {}, None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(output):
                if wl.config is None:
                    codes["verify"] = cli.cmd_verify()
                else:
                    cfg = cli.parse_config(wl.config_for(self.out_dir))
                    codes["run"] = cli.cmd_run(cfg)
                    if codes["run"] == 0:
                        codes["analyze"] = cli.cmd_analyze(self.csv_path, wl.mode, wl.dim)
        except Exception:
            error = traceback.format_exc()
        wall = time.perf_counter() - start
        reasons = [f"exception: {error}"] if error else []
        reasons += [f"{cmd} exited {rc}" for cmd, rc in codes.items() if rc != 0]
        if wl.config is None:
            reasons += [ln for ln in output.getvalue().splitlines() if ln.startswith("FAIL")]
            return wall, reasons, {}
        if cfg is None or codes.get("run") != 0:
            return wall, reasons, {"csv_identical": 0}
        try:
            with open(self.csv_path) as fh:
                text = fh.read()
        except OSError as exc:
            return wall, reasons + [f"no CSV: {exc}"], {"csv_identical": 0}
        reasons += workloads.check_csv(text, workloads.expected_rows(cfg), wl.reference)
        return wall, reasons, self._outputs(cfg, text)

    def _outputs(self, cfg, text):
        if self.first_csv is None:
            self.first_csv = text
        reference = self.workload.reference
        identical = text == (reference if reference is not None else self.first_csv)
        steps = int(round(cfg.t_end / cfg.dt))
        with contextlib.suppress(OSError), open(os.path.join(self.out_dir, "run_meta")) as fh:
            steps = next((int(ln.split("=", 1)[1]) for ln in fh if ln.startswith("steps=")), steps)
        return {
            "cells": math.prod(cfg.cells),
            "steps": steps,
            "samples": text.count("\n") - 1,
            "csv_bytes": len(text.encode()),
            "snapshot_bytes": os.path.getsize(os.path.join(self.out_dir, "final_fields.snap")),
            "csv_identical": int(identical),
        }


_SPAN_METRICS = (
    # metric, span, which total
    ("solver.run_self_s", "solver.run", "self"),
    ("functionals.sample_s", "functionals.sample", "incl"),
    ("functionals.sample_calls", "functionals.sample", "calls"),
    ("functionals.inequality_s", "functionals.inequality", "incl"),
    ("functionals.inequality_calls", "functionals.inequality", "calls"),
    ("oracle.homogeneous_ode_s", "oracle.homogeneous_ode", "incl"),
    ("oracle.brute_force_s", "oracle.brute_force", "incl"),
    ("analysis.fit_s", "analysis.fit", "incl"),
    ("analysis.balance_s", "analysis.balance", "incl"),
    ("analysis.growth_s", "analysis.growth", "incl"),
    ("cli.read_timeseries_s", "cli.read_timeseries", "incl"),
    ("cli.analyze_self_s", "cli.cmd_analyze", "self"),
    ("cli.parse_config_s", "cli.parse_config", "incl"),
    ("cli.build_initial_s", "cli.build_initial", "incl"),
    ("cli.run_self_s", "cli.cmd_run", "self"),
    ("cli.write_snapshot_s", "cli.write_snapshot", "incl"),
    ("verify.self_s", "cli.cmd_verify", "self"),
)


def layer_metrics(tracer: Tracer, wall: float, outputs: dict) -> dict:
    """Per-layer metrics of one traced operation."""
    calls, incl, self_ = tracer.totals()
    totals = {"calls": calls, "incl": incl, "self": self_}
    m = {name: totals[kind][span] for name, span, kind in _SPAN_METRICS
         if span in tracer.installed}
    cells, steps = outputs.get("cells", 0), outputs.get("steps", 0)
    m["solver.steps"] = steps
    m["solver.state_bytes"] = 3 * 8 * cells  # computed: three float64 fields
    m["cli.csv_bytes"] = outputs.get("csv_bytes", 0)
    m["cli.snapshot_bytes"] = outputs.get("snapshot_bytes", 0)
    m["csv_identical"] = outputs.get("csv_identical", 1)
    m["traced_wall_s"] = wall
    if "solver.run_self_s" in m:
        run_self = m["solver.run_self_s"]
        m["solver.step_us"] = run_self / steps * 1e6 if steps else 0.0
        m["solver.cell_steps_per_s"] = cells * steps / run_self if run_self else 0.0
        m["solver.run_self_share"] = run_self / wall
    if "functionals.sample_s" in m:
        n = m["functionals.sample_calls"]
        m["functionals.sample_us"] = m["functionals.sample_s"] / n * 1e6 if n else 0.0
        m["functionals.sample_share"] = m["functionals.sample_s"] / wall
        m["functionals.grid_calls_per_sample"] = tracer.counts["grid_calls"] / n if n else 0.0
    if "oracle.homogeneous_ode_s" in m:
        m["oracle.rk4_substeps"] = tracer.counts["substeps"]
    if {"oracle.homogeneous_ode_s", "oracle.brute_force_s"} <= m.keys():
        m["oracle.time_share"] = (m["oracle.homogeneous_ode_s"] + m["oracle.brute_force_s"]) / wall
    return m


def run_workload(cli, workload, seconds: float, trace: bool,
                 setup_repeats: int = SETUP_REPEATS):
    """Measure one workload; returns (result, record) as printed by main."""
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_out"))
    try:
        return _measure(cli, workload, seconds, trace, setup_repeats, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(ROOT, ".bench_out"))


def _measure(cli, workload, seconds, trace, setup_repeats, out_dir):
    # Set-up runs are spread over the window, one before each of the first
    # operations, so that they see the same machine load as the operations;
    # each untraced operation is bracketed by runs of the calibration kernel.
    setup_repeats = 0 if trace else setup_repeats
    tracer = Tracer() if trace else None
    operation = Operation(cli, workload, out_dir)
    setup, gauge, walls, traced_walls, layers, failures = [], [], [], [], [], []
    outputs = {}
    start = time.perf_counter()
    while True:
        if len(setup) < setup_repeats:
            setup.append(time_setup(workload, out_dir))
        traced = trace and len(walls) > len(traced_walls)
        if not trace:
            gauge.append(calibrate())
        with tracer if traced else contextlib.nullcontext():
            wall, reasons, outputs = operation()
        if reasons:
            failures.append(reasons)
            print(f"operation {len(walls) + len(traced_walls) + 1} failed:",
                  *reasons, sep="\n  ", file=sys.stderr)
        if traced:
            traced_walls.append(wall)
            layers.append(layer_metrics(tracer, wall, outputs))
        else:
            walls.append(wall)
        remaining_setup = (setup_repeats - len(setup)) * max(setup, default=0.0)
        projected = time.perf_counter() - start + remaining_setup
        complete = bool(traced_walls) or not trace
        if complete and projected + statistics.median(walls + traced_walls) > seconds:
            break
    if not trace:
        gauge.append(calibrate())
    while len(setup) < setup_repeats:
        setup.append(time_setup(workload, out_dir))
    attempted = len(walls) + len(traced_walls)

    if trace:
        metrics = {name: statistics.median(row[name] for row in layers)
                   for name in layers[0] if all(name in row for row in layers)}
        metrics.update(kernel_probes(cli, workload, out_dir))
        metrics["trace_overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0)
    else:
        metrics = {
            "wall_s": statistics.median(
                wall * CAL_REF_S / (0.5 * (before + after))
                for wall, before, after in zip(walls, gauge, gauge[1:])),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "ok_frac": 1.0 - len(failures) / attempted,
        }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "fingerprint": fingerprint(),
        "outputs": outputs,
        "counts": {k: v for k, v in metrics.items() if unit_of(k) in ("count", "B")},
        "computed_not_measured": ["solver.state_bytes"] if trace else [],
        "op_walls_s": walls,
        "traced_walls_s": traced_walls,
        "setup_runs_s": setup,
        "failures": failures,
        "wall_raw_s": statistics.median(walls),
        "calibration_s": gauge,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = workloads.load_program(ROOT)
    except workloads.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed)
    result, record = run_workload(cli, workload, args.seconds, bool(args.trace))
    record["seed"] = args.seed
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
