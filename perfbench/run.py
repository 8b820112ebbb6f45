#!/usr/bin/env python3
"""Benchmark for scorematch: time to a checked estimate, per workload.

Run from the repository root:

    python3 perfbench/run.py --workload desk-ising4 --seed 1 --seconds 20 --trace 0

The program under test is the `scorematch` package in ./src of the same
checkout; without it the benchmark exits with status 2 and prints no result.

With --trace 0 a run does `round(seconds / round_s)` rounds of the workload
(see workloads.py), each with inputs derived from (--seed, round), and
reports the end-to-end metrics:

  setup_s        median CPU time of importing scorematch in a fresh
                 interpreter (three samples) plus the median per-round CPU
                 time of building the inputs
  solve_s        mean per-round CPU time of the timed operations
  theta_err      mean over the timed checked estimates of their error: for
                 fits the max-norm parameter error scaled to N=5e4 by
                 sqrt(N/5e4); for scalespace the relative identity residual
  fail_frac      (failed + 1) / (attempted + 2), the rule-of-succession
                 estimate of the failure rate, which is never 0; the raw
                 counts are `attempted` and `failed`
  peak_alloc_mb  peak memory allocated by the timed operations of round 0,
                 traced by tracemalloc in an extra untimed pass. Resident
                 memory is not used: the ~55 MiB that importing numpy and
                 scipy costs would hide any table or cache.

Times are CPU time of this process: with one BLAS thread the program is
single-threaded, so on an idle machine CPU time equals wall time, while CPU
time barely moves when other processes share the cores (wall time of each
round is kept in the record). Per-layer times of the traced run are wall time.

An operation fails if it raises, does not converge or misses its reference.
`correct` is true when every timed estimate meets its reference: a fit that
stops at the iteration limit with an accurate estimate counts in `failed` but
not against `correct`, and so do the untimed probes of known defects (see
`extra` in workloads.py).

With --trace 1 a run does round 0 three times: traced, untraced, traced again.
A traced pass wraps every public function of the measured modules
(tracing.py). The run reports the per-layer metrics of the second traced
pass, the tracing overhead (second traced pass minus untraced pass), and the
number of work counters that differ between the two traced passes.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. A fuller record (environment, every
checked operation, and for traced runs every span) goes to
perfbench/out/<workload>-seed<seed>-trace<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
# Fixed so that reduction order, and with it every work count, repeats.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_SAMPLES = 3
IMPORT_PROBE = "import time; t = time.process_time(); import scorematch; print(time.process_time() - t)"

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "theta_err": "dimensionless",
    "fail_frac": "ratio",
    "peak_alloc_mb": "MiB",
}


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def fresh_import_seconds(env) -> float:
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def environment(np, scipy) -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT, capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def timed(fn, *args):
    """Result of fn, its wall time and its CPU time (this process, all threads)."""
    start, cpu_start = time.perf_counter(), time.process_time()
    result = fn(*args)
    return result, time.perf_counter() - start, time.process_time() - cpu_start


def peak_alloc_bytes(wl, seed) -> int:
    inputs = wl.setup(seed, 0)
    tracemalloc.start()
    try:
        wl.solve(inputs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_untraced(wl, seed, seconds, first_import_s, env):
    import_s = [first_import_s] + [fresh_import_seconds(env) for _ in range(IMPORT_SAMPLES - 1)]
    setup_s, solve_s, solve_wall_s, ops = [], [], [], []
    for r in range(max(1, round(seconds / wl.round_s))):
        inputs, _, cpu_setup = timed(wl.setup, seed, r)
        outputs, wall_solve, cpu_solve = timed(wl.solve, inputs)
        setup_s.append(cpu_setup)
        solve_s.append(cpu_solve)
        solve_wall_s.append(wall_solve)
        ops += wl.check(inputs, outputs) + wl.extra(seed, inputs, r)
    errs = [op.err for op in ops if op.timed and op.err is not None]
    failed = sum(not op.ok for op in ops)
    metrics = {
        "setup_s": statistics.median(import_s) + statistics.median(setup_s),
        "solve_s": statistics.fmean(solve_s),
        # No estimate at all means every timed operation raised.
        "theta_err": statistics.fmean(errs) if errs else 1e9,
        "fail_frac": (failed + 1) / (len(ops) + 2),
        "peak_alloc_mb": peak_alloc_bytes(wl, seed) / 2**20,
    }
    record = {
        "rounds": len(solve_s),
        "import_s": import_s,
        "setup_s": setup_s,
        "solve_s": solve_s,
        "solve_wall_s": solve_wall_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return ops, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, record


def traced_pass(wl, seed, sm, tracing):
    with tracing.Tracer(sm) as tracer:
        inputs = wl.setup(seed, 0)
        tracer.phase = "solve"
        outputs, solve_s, _ = timed(wl.solve, inputs)
    return tracer, inputs, outputs, solve_s


def run_traced(wl, seed, sm, tracing):
    # The first traced pass also warms up the program; the untraced and the
    # second traced pass both run warm, and their difference is the overhead.
    first = traced_pass(wl, seed, sm, tracing)[0]
    _, untraced_s, _ = timed(wl.solve, wl.setup(seed, 0))
    tracer, inputs, outputs, solve_s = traced_pass(wl, seed, sm, tracing)
    a, b = first.counts(), tracer.counts()
    mismatched = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    for key in mismatched:
        print(f"count differs between traced passes: {key} {a.get(key)} != {b.get(key)}",
              file=sys.stderr)
    values = tracing.layer_metrics(tracer, solve_s, untraced_s, len(mismatched))
    units = dict(tracing.PER_LAYER)
    record = {"counts": b, "mismatched_counts": mismatched, "spans": tracer.span_records()}
    return wl.check(inputs, outputs), {k: (v, units[k]) for k, v in values.items()}, record


def main(argv=None) -> int:
    # Workload names are listed here too, so that --help and argument errors
    # work before the program under test is imported.
    args = parse_args(argv, ["desk-ising4", "wide-ising12", "gauss-sm", "scalespace"])
    if not (SRC / "scorematch" / "__init__.py").is_file():
        print(f"error: the program under test is missing: no package at {SRC / 'scorematch'}",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    sys.path.insert(0, str(SRC))
    start = time.process_time()
    import scorematch as sm

    first_import_s = time.process_time() - start
    if Path(sm.__file__).resolve().parent != (SRC / "scorematch").resolve():
        print(f"error: imported scorematch from {sm.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import numpy as np
    import scipy

    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](sm)
    if args.trace:
        ops, metrics, record = run_traced(wl, args.seed, sm, tracing)
    else:
        ops, metrics, record = run_untraced(wl, args.seed, args.seconds, first_import_s, env)

    failed = sum(not op.ok for op in ops)
    result = {
        "correct": all(op.accurate for op in ops if op.timed),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    full = {
        "args": vars(args),
        "environment": environment(np, scipy),
        "operations": [dict(vars(op), ok=op.ok) for op in ops],
        **record,
        "result": result,
    }
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(full, indent=1) + "\n")

    print(f"environment: {json.dumps(full['environment'])}")
    for op in ops:
        if not op.ok:
            print(f"FAIL {'timed' if op.timed else 'untimed'} {op.name}: {op.note}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"record: {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
