"""Campaign benchmark of d2d_underlay: throughput, CPU cost and set-up.

Run from the root of a checkout; the library is imported from ``src/``:

    python3 benchmark/run.py                          # every workload
    python3 benchmark/run.py --workload campaign_clustered --seed 3 \\
        --seconds 40 --trace 0

Each workload is a closed loop with one caller: the next campaign starts
when the previous one returns.  ``--trace 0`` reports the end-to-end metrics
of BENCHMARK.json, measured with nothing wrapped; ``--trace 1`` reports the
per-layer metrics from a separate, sequential, traced run (see spans.py).
Both print a machine record and one line per metric, then, as the last
line, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``attempted``/``failed`` count power-loading solves and the
solves that ended MAX_ITER or failed the outside-in check.  Any failed
correctness check prints ``FAIL`` on stderr and makes the exit code 1.
Without ``--workload`` each workload runs in its own process and the last
line sums their results, with metrics named ``<workload>/<metric>``.
README.md beside this file says why each workload was chosen.
"""
from __future__ import annotations

import argparse
import hashlib
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
from dataclasses import dataclass

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_REPS = 5          # set-up is timed this many times; the median counts
CHECK_SEED = 1          # seed of the untimed reference campaign
MEDIAN_RTOL = 1e-3      # allowed drift of summary medians (solver changes)
JOBS_CHECK_ITERATIONS = 32     # two pool chunks of 16
CALIBRATION_LOOPS = 1000
CALIBRATION_NOMINAL_S = 0.005   # calibration_s() on an unloaded host
NPROC = len(os.sched_getaffinity(0))

if not os.path.isfile(os.path.join(SRC, "d2d_underlay", "__init__.py")):
    sys.exit("error: no src/d2d_underlay under %s; run from the root of a "
             "d2d-underlay checkout" % ROOT)
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from d2d_underlay import geometry as geo  # noqa: E402
from d2d_underlay import simulation as sim  # noqa: E402
from d2d_underlay import waveform as wf  # noqa: E402

import spans  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    updates: dict           # ScenarioConfig fields that differ from defaults
    jobs: int
    check_iterations: int   # snapshots per point of the reference campaign
    sweep_values: tuple = ()
    writes: bool = False    # write samples.csv, cdf.csv and cdf.gp as `run`


WORKLOADS = [
    Workload("campaign_clustered", dict(iterations=20), jobs=0,
             check_iterations=100),
    Workload("campaign_nonclustered_jobs2",
             dict(iterations=128, layout="NON_CLUSTERED"), jobs=2,
             check_iterations=64, writes=True),
    Workload("sweep_num_pairs", dict(iterations=8), jobs=0,
             check_iterations=20, sweep_values=(5, 7, 9, 11, 13)),
]
BY_NAME = {w.name: w for w in WORKLOADS}


def campaign_config(w, seed, iterations=None):
    updates = dict(w.updates, seed=seed)
    if "layout" in updates:
        updates["layout"] = geo.Layout[updates["layout"]]
    if iterations is not None:
        updates["iterations"] = iterations
    return geo.with_updates(geo.ScenarioConfig(), **updates)


def campaign_seed(bench_seed, k):
    return 1_000_003 * bench_seed + k


def setup(reps):
    """Build the filter and the four time-sim tables ``reps`` times.

    Returns the median build time in seconds, as measured and scaled to the
    nominal host, and the tables of each build.
    """
    times, nominal, built = [], [], []
    before = calibration_s()
    for _ in range(reps):
        t0 = time.perf_counter()
        filt = wf.build_phydyas_filter(4, 512)
        tables = wf.build_all_tables(filt, method=wf.TIME_SIM, num_offsets=400)
        times.append(time.perf_counter() - t0)
        after = calibration_s()
        nominal.append(to_nominal(times[-1], before, after))
        before = after
        built.append(tables)
    return statistics.median(times), statistics.median(nominal), built


def run_unit(w, config, tables, jobs, out):
    """One step of the closed loop; returns the campaign reports."""
    if w.sweep_values:
        parameter = sim.SweepParameter.NUM_PAIRS
        points = sim.sweep(config, parameter, w.sweep_values, tables, jobs=jobs)
        sim.write_sweep_csv(parameter, points, os.path.join(out, "sweep.csv"))
        return [report for _, report in points]
    report = sim.run_campaign(config, tables, jobs=jobs)
    if w.writes:
        sim.write_samples_csv(report, os.path.join(out, "samples.csv"))
        sim.write_cdf_csv(report, os.path.join(out, "cdf.csv"))
        sim.write_gnuplot_cdf(os.path.join(out, "cdf.gp"))
    return [report]


def check_rows(report):
    problems = []
    if len(report.results) != 2 * report.iterations:
        problems.append("%d result rows for %d iterations"
                        % (len(report.results), report.iterations))
    for it, r in report.results:
        if r.feasible and not (math.isfinite(r.rate_actual)
                               and math.isfinite(r.rate_predicted)
                               and 0.0 <= r.rate_actual <= r.rate_predicted):
            problems.append("iteration %d %s: rate_actual %r, rate_predicted "
                            "%r" % (it, r.case.value, r.rate_actual,
                                    r.rate_predicted))
    return problems


def cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def calibration_s():
    """Median time of three passes of a fixed loop of small NumPy operations.

    The loop does not touch d2d_underlay, so its time follows the speed of
    the host alone.  On a shared machine that speed drifts (by up to 2.4x
    over tens of seconds on a 2-vCPU cloud VM), and the loop slows down in
    step with the campaigns.
    """
    x = np.linspace(0.0, 1.0, 180).reshape(12, 15)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(CALIBRATION_LOOPS):
            y = np.log1p(x * (i % 7 + 1))
            acc += float(np.einsum("ij,ij->", y, x)) + sum(range(50))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def to_nominal(seconds, before, after):
    """Scale a time measured between two calibrations to the nominal host."""
    return seconds * CALIBRATION_NOMINAL_S / (0.5 * (before + after))


@dataclass
class Loop:
    units: int = 0
    snapshots: int = 0
    wall: float = 0.0           # as measured
    cpu: float = 0.0
    nominal_wall: float = 0.0   # scaled to the nominal host speed
    nominal_cpu: float = 0.0


def closed_loop(w, tables, bench_seed, jobs, out, seconds=None, units=None):
    """Run campaign units back to back, for ``seconds`` or ``units`` units.

    Only the units themselves are timed; their rows are checked afterwards.
    Unit ``k`` (from 1) draws from ``campaign_seed(bench_seed, k)``.  The
    host is calibrated between units, and each unit's times are also scaled
    by the calibrations on either side of it.
    """
    loop, problems = Loop(), []
    before = calibration_s()
    while (loop.wall < seconds) if units is None else (loop.units < units):
        config = campaign_config(w, campaign_seed(bench_seed, loop.units + 1))
        c0, t0 = cpu_seconds(), time.perf_counter()
        reports = run_unit(w, config, tables, jobs, out)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        after = calibration_s()
        loop.wall += wall
        loop.cpu += cpu
        loop.nominal_wall += to_nominal(wall, before, after)
        loop.nominal_cpu += to_nominal(cpu, before, after)
        before = after
        loop.units += 1
        for report in reports:
            loop.snapshots += report.iterations
            problems += check_rows(report)
    return loop, problems


def samples_digest(reports, out):
    """SHA-256 over the samples.csv bytes of each report, in order."""
    h = hashlib.sha256()
    path = os.path.join(out, "reference_samples.csv")
    for report in reports:
        sim.write_samples_csv(report, path)
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def summary_medians(reports):
    return {"%d/%s/%s" % (i, case.value, variant):
            report.summary[(case, variant, "median")]
            for i, report in enumerate(reports)
            for case in sim.Case for variant in ("actual", "predicted")}


def reference_campaign(w, tables, out):
    """Untimed campaign at CHECK_SEED, sequential; it also warms caches.

    Returns the recorded power_loading calls, the samples digest, the
    summary medians and the problems found in its rows.
    """
    config = campaign_config(w, CHECK_SEED, w.check_iterations)
    solves = []
    with spans.collecting_solves(solves):
        reports = run_unit(w, config, tables, 0, out)
    problems = [p for r in reports for p in check_rows(r)]
    return solves, samples_digest(reports, out), summary_medians(reports), \
        problems


def check_jobs_invariance(w, tables, out):
    """Results must not depend on ``jobs``: one campaign of the workload's
    config runs sequentially and in a pool, and both must write identical
    samples.csv."""
    config = campaign_config(w, CHECK_SEED, JOBS_CHECK_ITERATIONS)
    jobs = max(w.jobs, 2)
    seq, pooled = (samples_digest([sim.run_campaign(config, tables, jobs=j)],
                                  out) for j in (0, jobs))
    print("check jobs_invariance jobs=0 vs jobs=%d: %s"
          % (jobs, "identical" if seq == pooled else "DIFFERENT"))
    if seq != pooled:
        return ["samples differ between jobs=0 (%s) and jobs=%d (%s)"
                % (seq, jobs, pooled)]
    return []


def compare_with_reference(w, digest, medians):
    with open(REFERENCE) as fh:
        ref = json.load(fh)["workloads"].get(w.name)
    if ref is None:
        return ["no reference recorded for %s" % w.name]
    print("check samples_sha256 %s byte_identical=%s (reference %s)"
          % (digest, digest == ref["samples_sha256"], ref["samples_sha256"]))
    problems = []
    if set(medians) != set(ref["medians"]):
        return ["summary keys %s differ from the reference" % sorted(medians)]
    for key, value in medians.items():
        want = ref["medians"][key]
        if not abs(value - want) <= MEDIAN_RTOL * abs(want):
            problems.append("median %s = %r, reference %r (rtol %g)"
                            % (key, value, want, MEDIAN_RTOL))
    print("check summary medians within rtol %g of reference: %s"
          % (MEDIAN_RTOL, not problems))
    return problems


def check_outputs(w, tables, out):
    """All untimed checks; returns the reference campaign's solves and the
    problems found."""
    solves, digest, medians, problems = reference_campaign(w, tables, out)
    problems += compare_with_reference(w, digest, medians)
    problems += check_jobs_invariance(w, tables, out)
    return solves, problems


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_record(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"nproc": NPROC, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "commit": git_commit(), "seed": seed}


def measure(w, seconds, bench_seed, out):
    """Untraced run: the end-to-end metrics of BENCHMARK.json."""
    setup_raw, setup_s, built = setup(SETUP_REPS)
    tables = built[0]
    solves, problems = check_outputs(w, tables, out)
    attempted, failed = spans.count_solve_failures(solves)
    loop, loop_problems = closed_loop(w, tables, bench_seed, w.jobs, out,
                                      seconds=seconds)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print("measured %d campaign units, %d snapshots, %.3f s wall; as "
          "measured: %.6g snapshots/s, %.6g CPU ms/snapshot, set-up %.6g s; "
          "host speed %.3f of nominal"
          % (loop.units, loop.snapshots, loop.wall, loop.snapshots / loop.wall,
             1e3 * loop.cpu / loop.snapshots, setup_raw,
             loop.nominal_wall / loop.wall))
    metrics = {
        "iters_per_s": (loop.snapshots / loop.nominal_wall, "1/s"),
        "cpu_ms_per_iter": (1e3 * loop.nominal_cpu / loop.snapshots, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return metrics, attempted, failed, problems + loop_problems


def measure_traced(w, seconds, bench_seed, out):
    """Traced run: the per-layer metrics of BENCHMARK.json.

    The untraced first half gives the pool CPU use at the workload's own
    ``jobs``; the traced campaigns then repeat the same seeds sequentially,
    so their wall time against the untraced sequential wall gives the
    tracing overhead.  They run on the tables of the last set-up build,
    which nothing has used yet, so every band-kernel cache miss is seen.
    """
    tracer = spans.Tracer()
    with spans.tracing(tracer):
        _, _, built = setup(SETUP_REPS)
    _, problems = check_outputs(w, built[0], out)
    pooled, loop_problems = closed_loop(w, built[0], bench_seed, w.jobs, out,
                                        seconds=seconds / 2)
    problems += loop_problems
    base = pooled
    if w.jobs > 1:
        base, loop_problems = closed_loop(w, built[0], bench_seed, 0, out,
                                          seconds=seconds / 4)
        problems += loop_problems
    with spans.tracing(tracer):
        traced, loop_problems = closed_loop(w, built[-1], bench_seed, 0, out,
                                            units=base.units)
    problems += loop_problems
    attempted, failed = spans.count_solve_failures(tracer.solves)
    metrics = spans.layer_metrics(tracer)
    metrics["simulation.pool.cpu_util"] = (
        pooled.cpu / (pooled.wall * NPROC), "ratio")
    metrics["trace_overhead_frac"] = (
        traced.nominal_wall / base.nominal_wall - 1.0, "ratio")
    return metrics, attempted, failed, problems


def run_workload(args):
    w = BY_NAME[args.workload]
    print("workload %s seed %d seconds %g trace %d"
          % (w.name, args.seed, args.seconds, args.trace))
    print("machine %s" % json.dumps(machine_record(args.seed)))
    out = tempfile.mkdtemp(prefix=".bench-out-", dir=ROOT)
    try:
        run = measure_traced if args.trace else measure
        metrics, attempted, failed, problems = run(w, args.seconds, args.seed,
                                                   out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if not args.trace:
        print("%-44s %.6g (%d/%d solves) ratio"
              % ("solve_fail_frac", failed / attempted, failed, attempted))
    for name, (value, unit) in metrics.items():
        print("%-44s %.6g %s" % (name, value, unit))
    for p in problems:
        print("FAIL %s: %s" % (w.name, p), file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(args):
    """Every workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for w in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w.name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0:
            code = done.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"]["%s/%s" % (w.name, name)] = value
    print(json.dumps(combined))
    return code


def record_reference():
    """Write reference.json from the current source tree."""
    out = tempfile.mkdtemp(prefix=".bench-out-", dir=ROOT)
    try:
        tables = setup(1)[2][0]
        doc = {"commit": git_commit(), "check_seed": CHECK_SEED,
               "workloads": {}}
        for w in WORKLOADS:
            _, digest, medians, problems = reference_campaign(w, tables, out)
            if problems:
                sys.exit("error: %s: %s" % (w.name, problems))
            doc["workloads"][w.name] = {"samples_sha256": digest,
                                        "medians": medians}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    with open(REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print("wrote %s" % REFERENCE)
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   choices=["all"] + [w.name for w in WORKLOADS])
    p.add_argument("--seed", type=int, default=0, help="workload seed")
    p.add_argument("--seconds", type=float, default=40.0,
                   help="measured campaign time per run")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0,
                   help="1: per-layer metrics from a traced run")
    p.add_argument("--record-reference", action="store_true",
                   help="rewrite reference.json from this source tree")
    args = p.parse_args(argv)
    if args.record_reference:
        return record_reference()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
