"""Benchmark for qssbounds: the bound, lemmas and replay workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bound --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Each workload is a closed loop with one client in one process and one
thread: the jobs run one after another, in passes, until `--seconds` is
used up.  Every job starts cold (the system cache is cleared first).  A
job's time is the median of its repeats, each in reference seconds (see
clock.py).  With `--trace 0` the run prints the end-to-end metrics; with
`--trace 1` it alternates untraced and traced passes, prints the
per-layer metrics and writes the spans to
`.perfbench/trace-<workload>-seed<seed>.jsonl`.  The last line of output
is one JSON object: correct, attempted, failed and metrics.

The imported package is the checkout's own `src/qssbounds`; without it
the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
import types
from time import perf_counter

import clock
import gate
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

# An untraced run sets up at least SETUP_MIN times and at most SETUP_MAX
# times, stopping once SETUP_BUDGET_S wall seconds have gone to set-up;
# setup_s is the median.  A traced run sets up once.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 2.5
MIN_CYCLES = 2  # every job runs at least this often in each mode


def import_fresh():
    """Import qssbounds from the checkout as a fresh process would."""
    for name in [m for m in sys.modules if m == "qssbounds" or m.startswith("qssbounds.")]:
        del sys.modules[name]
    q = types.SimpleNamespace(
        **{m: importlib.import_module(f"qssbounds.{m}")
           for m in ("structures", "cone", "simplex", "prover", "cli")}
    )
    if not os.path.abspath(q.prover.__file__).startswith(SRC + os.sep):
        raise ImportError(f"qssbounds imported from {q.prover.__file__}, not from {SRC}")
    return q


class BuildGuard:
    """Counts `build_system` calls so a cache hit cannot pass as a speed-up."""

    def __init__(self, q) -> None:
        self.calls = 0
        original = q.prover.build_system

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        q.prover.build_system = counted


class JobRecord:
    """Repeats, first result and every failure of one job in one mode."""

    def __init__(self) -> None:
        self.times: list[float] = []  # reference seconds, one per repeat
        self.spans: list[tuple[int, int, float]] = []  # span range and scale per traced repeat
        self.result = None
        self.signature = None
        self.builds = None
        self.counts = None
        self.failures: list[str] = []

    def median_repeat(self) -> int:
        """Index of the repeat whose time is the (lower) median."""
        order = sorted(range(len(self.times)), key=self.times.__getitem__)
        return order[(len(order) - 1) // 2]

    @property
    def time(self) -> float:
        return self.times[self.median_repeat()]


def run_repeat(q, job, rec: JobRecord, guard: BuildGuard, tracer, cal_before: float) -> float:
    """Time one cold repeat; returns the calibration taken after it."""
    q.prover.cached_system.cache_clear()
    gc.collect()
    builds_before = guard.calls
    first_span = 0
    if tracer is not None:
        tracer.job = f"{job.id}#{len(rec.times)}"
        tracer.counts = tracing.Counter()
        first_span = len(tracer.spans)
        root = tracer.open("job")
    error = None
    t0 = perf_counter()
    try:
        result = job.run()
    except Exception:
        result, error = None, traceback.format_exc(limit=3)
    t1 = perf_counter()
    if tracer is not None:
        root[1] = t0
        tracer.close(root, t1)
    cal_after = clock.calibrate()
    factor = clock.scale(cal_before, cal_after)
    rec.times.append((t1 - t0) * factor)
    if tracer is not None:
        rec.spans.append((first_span, len(tracer.spans), factor))
    if error is not None:
        rec.failures.append(error)
        return cal_after
    builds = guard.calls - builds_before
    signature = job.signature(result)
    counts = dict(tracer.counts) if tracer is not None else None
    n = len(rec.times)
    if rec.result is None:
        rec.result, rec.signature, rec.builds, rec.counts = result, signature, builds, counts
        if builds < 1:
            rec.failures.append("cold repeat built no constraint system")
    elif signature != rec.signature:
        rec.failures.append(f"repeat {n} result differs from the first")
    elif builds != rec.builds:
        rec.failures.append(f"repeat {n} built {builds} systems, the first built {rec.builds}")
    elif counts != rec.counts:
        rec.failures.append(f"repeat {n} traced counts differ from the first")
    return cal_after


def timed_passes(q, jobs, seconds: float, guard: BuildGuard, tracer=None):
    """Run passes over the jobs until the next cycle would overrun `seconds`.

    A cycle is one untraced pass, plus one traced pass when tracing.
    """
    modes = [None] if tracer is None else [None, tracer]
    records = [{job.id: JobRecord() for job in jobs} for _ in modes]
    deadline = perf_counter() + seconds
    cycles, longest = 0, 0.0
    while True:
        start = perf_counter()
        for mode, recs in zip(modes, records):
            cal = clock.calibrate()
            if mode is not None:
                mode.install(q)
            try:
                for job in jobs:
                    cal = run_repeat(q, job, recs[job.id], guard, mode, cal)
            finally:
                if mode is not None:
                    mode.uninstall()
        cycles += 1
        longest = max(longest, perf_counter() - start)
        if cycles >= MIN_CYCLES and perf_counter() + longest > deadline:
            return records


def time_metrics(jobs, recs) -> dict[str, float]:
    value = {job.id: recs[job.id].time for job in jobs}
    return {
        "time_s": sum(value.values()),
        "full_s": sum(value[j.id] for j in jobs if j.ineq == "full"),
        "elemental_s": sum(value[j.id] for j in jobs if j.ineq == "elemental"),
    }


def layer_metrics(jobs, untraced, traced, tracer) -> dict[str, float]:
    """Per-layer metrics from each job's median traced repeat."""
    totals = tracing.Counter()
    for job in jobs:
        rec = traced[job.id]
        first, last, factor = rec.spans[rec.median_repeat()]
        for key, value in tracing.layer_totals(tracer.spans, first, last).items():
            totals[key] += value * factor if key.endswith("_s") else value
        for key, value in (rec.counts or {}).items():
            if key == "simplex.result_bits":
                totals[key] = max(totals[key], value)
            else:
                totals[key] += value
    out = {}
    for layer in tracing.LAYERS:
        if layer not in ("prover", "harness", "simplex.extract_certificate"):
            out[f"{layer}.calls"] = totals[f"{layer}.calls"]
        out[f"{layer}.self_s"] = totals[f"{layer}.self_s"]
    for key in ("cone.rows_built", "simplex.pivots", "simplex.rows_in", "simplex.result_bits",
                "simplex.not_optimal", "prover.cert_entries", "prover.check_useful",
                "prover.check_solves"):
        out[key] = totals[key]
    solves = totals["prover.check_solves"]
    out["prover.useful_solve_ratio"] = totals["prover.check_useful"] / solves if solves else 0.0
    traced_s = time_metrics(jobs, traced)["time_s"]
    out["trace.job_s"] = traced_s
    out["trace.overhead_s"] = traced_s - time_metrics(jobs, untraced)["time_s"]
    out["trace.unaccounted_s"] = traced_s - sum(
        v for k, v in out.items() if k.endswith(".self_s")
    )
    return out


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def run_workload(args) -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        return _run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_workload(args, workdir: str) -> int:
    setups, setup_wall = [], 0.0
    cal = clock.calibrate()
    while not setups or not args.trace and len(setups) < SETUP_MAX and (
            len(setups) < SETUP_MIN or setup_wall < SETUP_BUDGET_S):
        t0 = perf_counter()
        q = import_fresh()
        jobs = workloads.make_jobs(q, args.workload, args.seed, workdir)
        wall = perf_counter() - t0
        cal_after = clock.calibrate()
        setups.append(wall * clock.scale(cal, cal_after))
        setup_wall += wall
        cal = cal_after
    guard = BuildGuard(q)
    tracer = tracing.Tracer() if args.trace else None

    records = timed_passes(q, jobs, args.seconds, guard, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    untraced = records[0]
    failures = {job.id: [f for recs in records for f in recs[job.id].failures] for job in jobs}
    results = {job.id: untraced[job.id].result for job in jobs if not failures[job.id]}
    gate_start = perf_counter()
    highs = gate.load_highs()
    if highs is None:
        print("note: scipy is not importable; the HiGHS cross-checks were skipped")
    for job_id, reason in gate.CHECKS[args.workload](q, jobs, results, highs):
        failures[job_id].append(reason)
    gate_s = perf_counter() - gate_start

    attempted = sum(len(rec.times) for recs in records for rec in recs.values())
    failed = sum(len(recs[job.id].times) for recs in records for job in jobs if failures[job.id])
    repeats = min(len(rec.times) for recs in records for rec in recs.values())
    samples = f"{len(jobs)} jobs, median of >= {repeats} repeats each"
    if args.trace:
        metrics = layer_metrics(jobs, untraced, records[1], tracer)
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(trace_path)
        sample_note = {k: samples for k in metrics}
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(trace_path, ROOT)}")
    else:
        metrics = {"setup_s": statistics.median(setups), **time_metrics(jobs, untraced),
                   "peak_rss_mb": peak_rss_mb}
        sample_note = {k: samples for k in metrics}
        sample_note["setup_s"] = f"median of {len(setups)} set-ups"
        sample_note["peak_rss_mb"] = "1 process"
    error_rate = failed / attempted

    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
          f"trace {args.trace}; times in reference seconds (clock.py)")
    print(f"set-up {setup_wall:.3f} s, correctness gate {gate_s:.3f} s (wall, untimed)")
    for job in jobs:
        times = "  ".join(f"{recs[job.id].time:9.4f} s x{len(recs[job.id].times)}"
                          for recs in records)
        print(f"  job {job.id:38s} {times}")
        for reason in failures[job.id]:
            print(f"FAILED {job.id}: {reason.strip()}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit_of(name):9s} ({sample_note[name]})")
    print(f"  {'error_rate':34s} {error_rate:14.6f} {'fraction':9s} "
          f"({failed} of {attempted} job runs failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        status = max(status, subprocess.run(argv, cwd=ROOT, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qssbounds", "__init__.py")):
        print(f"error: no qssbounds sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
