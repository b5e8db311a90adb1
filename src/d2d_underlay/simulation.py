"""Monte Carlo campaign driver: paired waveform cases, rates, CDFs, sweeps.

Each iteration draws one topology and one set of channel gains, then runs
the full assignment + power-loading pipeline twice, once per D2D waveform,
on that identical snapshot.  The pairing removes topology variance from the
waveform comparison.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import allocation as al
from . import channel as ch
from . import geometry as geo
from . import interference as itf
from .geometry import ConfigurationError, atomic_write
from .waveform import WaveformType

CDF_GRID_POINTS = 200


class EmptyReportError(RuntimeError):
    """Every iteration of a campaign was infeasible; nothing to report."""


class Case(Enum):
    D2D_OFDM = "D2D_OFDM"
    D2D_FBMC = "D2D_FBMC"

    @property
    def waveform(self):
        return (WaveformType.OFDM if self is Case.D2D_OFDM
                else WaveformType.FBMC_OQAM)


class SweepParameter(Enum):
    NUM_PAIRS = "NUM_PAIRS"
    CLUSTER_RADIUS = "CLUSTER_RADIUS"
    CLUSTER_DISTANCE = "CLUSTER_DISTANCE"


@dataclass
class IterationResult:
    case: Case
    rate_predicted: float       # bit/s, averaged over pairs
    rate_actual: float          # bit/s, averaged over pairs
    feasible: bool
    cluster_radius: float
    cluster_distance: float
    num_pairs: int


@dataclass
class RateReport:
    """Aggregated campaign output for both cases."""

    iterations: int
    skipped: int
    actual: dict                # Case -> sorted sample vector, bit/s
    predicted: dict             # Case -> sorted sample vector
    cdf_grid: np.ndarray
    cdf: dict                   # (Case, "actual"|"predicted") -> values
    summary: dict               # (Case, variant, stat) -> float
    results: list = field(default_factory=list)   # (iteration, IterationResult)


def rate_from_sinr(sinr, subcarrier_spacing):
    """Shannon rate in bit/s of one subcarrier at the given linear SINR."""
    return subcarrier_spacing * np.log2(1.0 + np.asarray(sinr, dtype=float))


def _pair_rates(sinr_matrix, config):
    """Mean over pairs of each pair's 12-subcarrier rate sum, bit/s."""
    per_pair = rate_from_sinr(sinr_matrix, config.subcarrier_spacing).sum(axis=1)
    return float(per_pair.mean())


def run_iteration(config, tables, seed_stream):
    """One snapshot, both waveform cases; returns a two-element list.  A case
    whose power loading is skipped (negative CU headroom) is infeasible and
    has zero rates."""
    rng = np.random.default_rng(seed_stream)
    placement = geo.sample_placement(config, rng)
    gains = ch.gains_from_placement(placement, config, rng)
    smap = itf.random_cu_map(config, rng)
    cu_powers = itf.uniform_cu_powers(config)
    zero = itf.PowerAllocation(
        p_d2d=np.zeros((config.num_d2d_pairs, config.subcarriers_per_rb)),
        p_cu=cu_powers)
    radius = (placement.cluster_radius if placement.cluster_radius is not None
              else float("nan"))
    distance = (float(np.linalg.norm(placement.cluster_centre))
                if placement.cluster_centre is not None else float("nan"))

    out = []
    for case in Case:
        kind = case.waveform
        cost = itf.cu_to_d2d_cost_matrix(
            gains, zero, tables[(WaveformType.OFDM, kind)], smap)
        assignment = al.hungarian(cost)
        solved = al.power_loading(assignment, gains, tables, smap, config, kind)
        # the CU headroom does not depend on the waveform, so a snapshot is
        # skipped in both cases or in neither
        feasible = solved.status is not al.SolverStatus.INFEASIBLE_SKIPPED
        rate_predicted = rate_actual = 0.0
        if feasible:
            actual, predicted = itf.d2d_sinr_matrices(
                gains, solved.powers, tables,
                smap.with_assignment(assignment.rb_of_pair),
                config.noise_per_subcarrier_w, kind)
            rate_predicted = _pair_rates(predicted, config)
            rate_actual = _pair_rates(actual, config)
        out.append(IterationResult(
            case=case, rate_predicted=rate_predicted, rate_actual=rate_actual,
            feasible=feasible, cluster_radius=radius,
            cluster_distance=distance, num_pairs=config.num_d2d_pairs))
    return out


def run_campaign(config, tables, jobs=0):
    """Aggregate ``config.iterations`` independent snapshots into a report.

    ``jobs > 1`` distributes iterations over worker processes; each iteration
    owns a spawned seed stream, so the report is identical for any degree.
    """
    if jobs < 0:
        raise ValueError("jobs must be >= 0, got %d" % jobs)
    streams = np.random.SeedSequence(config.seed).spawn(config.iterations)
    results = []
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            batches = pool.map(run_iteration, [config] * len(streams),
                               [tables] * len(streams), streams, chunksize=16)
            for it, batch in enumerate(batches):
                results.extend((it, r) for r in batch)
    else:
        for it, stream in enumerate(streams):
            results.extend((it, r) for r in run_iteration(config, tables, stream))
    return build_report(results, config.iterations)


def build_report(results, iterations):
    actual = {c: [] for c in Case}
    predicted = {c: [] for c in Case}
    skipped_iters = set()
    for it, r in results:
        if not r.feasible:
            skipped_iters.add(it)
            continue
        actual[r.case].append(r.rate_actual)
        predicted[r.case].append(r.rate_predicted)
    if all(len(v) == 0 for v in actual.values()):
        raise EmptyReportError("all %d iterations were infeasible" % iterations)
    actual = {c: np.sort(np.asarray(v)) for c, v in actual.items()}
    predicted = {c: np.sort(np.asarray(v)) for c, v in predicted.items()}

    lo = min(v.min() for v in list(actual.values()) + list(predicted.values()))
    hi = max(v.max() for v in list(actual.values()) + list(predicted.values()))
    if hi <= lo:
        hi = lo + 1.0
    grid = np.linspace(lo, hi, CDF_GRID_POINTS)
    cdf = {}
    summary = {}
    for c in Case:
        for name, samples in (("actual", actual[c]), ("predicted", predicted[c])):
            cdf[(c, name)] = np.searchsorted(samples, grid,
                                             side="right") / max(len(samples), 1)
            summary[(c, name, "mean")] = float(samples.mean())
            summary[(c, name, "median")] = float(np.median(samples))
            summary[(c, name, "p5")] = float(np.percentile(samples, 5))
            summary[(c, name, "p95")] = float(np.percentile(samples, 95))
    return RateReport(iterations=iterations, skipped=len(skipped_iters),
                      actual=actual, predicted=predicted, cdf_grid=grid,
                      cdf=cdf, summary=summary, results=results)


def sweep_configs(config, parameter, values):
    """The config of every sweep point, so that a bad point fails before any
    campaign runs.  Point ``idx`` runs on seed ``config.seed + 7919 * idx``:
    distinct but reproducible, and shared by both cases."""
    configs = []
    for idx, value in enumerate(values):
        try:
            if parameter is SweepParameter.NUM_PAIRS:
                if not float(value).is_integer():
                    raise ConfigurationError("num_pairs must be an integer")
                update = {"num_d2d_pairs": int(value)}
            elif parameter is SweepParameter.CLUSTER_RADIUS:
                update = {"cluster_radius_fixed": float(value)}
            else:
                update = {"cluster_distance_fixed": float(value)}
            cfg = geo.with_updates(config, seed=config.seed + 7919 * idx,
                                   **update)
        except ConfigurationError as exc:
            raise ConfigurationError(
                "sweep point %s = %s: %s" % (parameter.value, value, exc))
        configs.append(cfg)
    return configs


def sweep(config, parameter, values, tables, jobs=0):
    """One campaign per parameter value; returns a list of (value, report)."""
    configs = sweep_configs(config, parameter, values)
    return [(value, run_campaign(cfg, tables, jobs=jobs))
            for value, cfg in zip(values, configs)]


# ---------------------------------------------------------------------------
# output files (decimal text, 9 significant digits, atomic writes)
# ---------------------------------------------------------------------------

# the (case, variant) series of every CDF, sweep and gnuplot column
_COLUMNS = [(c, v) for c in Case for v in ("actual", "predicted")]


def write_samples_csv(report, path):
    rows = ["iteration,case,rate_predicted,rate_actual,feasible,"
            "cluster_radius,cluster_distance,num_pairs"]
    for it, r in report.results:
        rows.append("%d,%s,%.9g,%.9g,%d,%.9g,%.9g,%d"
                    % (it, r.case.value, r.rate_predicted, r.rate_actual,
                       r.feasible, r.cluster_radius, r.cluster_distance,
                       r.num_pairs))
    atomic_write(path, "\n".join(rows) + "\n")


def write_cdf_csv(report, path):
    rows = ["rate," + ",".join("%s_%s" % (c.value, v) for c, v in _COLUMNS)]
    for i, x in enumerate(report.cdf_grid):
        vals = ",".join("%.9g" % report.cdf[key][i] for key in _COLUMNS)
        rows.append("%.9g,%s" % (x, vals))
    atomic_write(path, "\n".join(rows) + "\n")


def write_sweep_csv(parameter, points, path):
    rows = ["%s," % parameter.value.lower()
            + ",".join("%s_%s_mean" % (c.value, v) for c, v in _COLUMNS)]
    for value, report in points:
        vals = ",".join("%.9g" % report.summary[(c, v, "mean")]
                        for c, v in _COLUMNS)
        rows.append("%.9g,%s" % (value, vals))
    atomic_write(path, "\n".join(rows) + "\n")


def _write_gnuplot(path, xlabel, ylabel, key, style, csv):
    """A gnuplot script plotting each ``_COLUMNS`` series of ``csv``
    against its first column."""
    plots = ["  '%s' using 1:%d with %s title '%s %s'"
             % (csv, i + 2, style, c.value, v)
             for i, (c, v) in enumerate(_COLUMNS)]
    lines = [
        "set datafile separator ','",
        "set xlabel '%s'" % xlabel,
        "set ylabel '%s'" % ylabel,
        "set key %s" % key,
        "set grid",
        "plot \\",
        ", \\\n".join(plots),
    ]
    atomic_write(path, "\n".join(lines) + "\n")


def write_gnuplot_cdf(path, cdf_csv="cdf.csv"):
    _write_gnuplot(path, "Average rate per D2D pair (bit/s)", "CDF",
                   "bottom right", "lines", cdf_csv)


def write_gnuplot_sweep(parameter, path, sweep_csv="sweep.csv"):
    _write_gnuplot(path, parameter.value.lower(),
                   "Mean rate per D2D pair (bit/s)", "top right",
                   "linespoints", sweep_csv)
