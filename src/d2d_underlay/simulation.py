"""Monte Carlo campaign driver: paired waveform cases, rates, CDFs, sweeps.

Each iteration draws one topology and one set of channel gains, then runs
the full assignment + power-loading pipeline twice, once per D2D waveform,
on that identical snapshot.  The pairing removes topology variance from the
waveform comparison.

A campaign runs in blocks of ``BLOCK_SIZE`` snapshots, fixed by snapshot
index.  Each snapshot draws from its own generator; the block stacks the
arithmetic of gains, cost matrices, SINR and rates, while the assignment and
the power loading stay per snapshot and case.  No snapshot's result depends
on its block-mates, so a report is the same for any ``jobs``.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

from . import allocation as al
from . import channel as ch
from . import geometry as geo
from . import interference as itf
from .geometry import ConfigurationError, atomic_write
from .waveform import WaveformType

CDF_GRID_POINTS = 200
BLOCK_SIZE = 16


class EmptyReportError(ValueError):
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


# the (case, variant) series of every report statistic, CDF, sweep and
# gnuplot column
_COLUMNS = [(c, v) for c in Case for v in ("actual", "predicted")]


@dataclass(eq=False)
class CampaignRecord:
    """A campaign's results, one row per snapshot; each per-case column is
    ``(snapshots, 2)``, in ``Case`` order."""

    rate_predicted: np.ndarray  # bit/s, averaged over pairs
    rate_actual: np.ndarray     # bit/s, averaged over pairs
    status: np.ndarray          # al.SolverStatus of each case's solve
    newton_steps: np.ndarray
    kkt_residual: np.ndarray
    cluster_radius: np.ndarray  # (snapshots,); NaN unless clustered
    cluster_distance: np.ndarray

    @property
    def feasible(self):
        """Every solve but a skipped one (negative CU headroom) counts."""
        return self.status != al.SolverStatus.INFEASIBLE_SKIPPED


Sample = namedtuple("Sample", "case rate_predicted rate_actual feasible "
                    "cluster_radius cluster_distance num_pairs")


@dataclass
class RateReport:
    """Aggregated campaign output for both cases."""

    iterations: int
    skipped: int
    cdf_grid: np.ndarray
    cdf: dict                   # (Case, "actual"|"predicted") -> values
    summary: dict               # (Case, variant, stat) -> float
    record: CampaignRecord
    num_pairs: int

    @property
    def results(self):
        """samples.csv's ``(iteration, Sample)`` rows; each field is read in
        one ``tolist()`` from the record column of its name."""
        rows = zip(*(getattr(self.record, name).tolist()
                     for name in Sample._fields[1:-1]))
        return [(it, Sample(case, predicted[k], actual[k], feasible[k],
                            radius, distance, self.num_pairs))
                for it, (predicted, actual, feasible, radius, distance)
                in enumerate(rows) for k, case in enumerate(Case)]


def rate_from_sinr(sinr, subcarrier_spacing):
    """Shannon rate in bit/s of one subcarrier at the given linear SINR."""
    return subcarrier_spacing * np.log2(1.0 + np.asarray(sinr, dtype=float))


def _case_columns(gains, smap, results, tables, config, kind):
    """One case's per-case ``CampaignRecord`` columns over a block, whose
    ``smap`` holds each snapshot's assignment: the predicted and actual
    rates, bit/s, each pair's rate summed over its subcarriers and averaged
    over pairs, then each solve's status, Newton steps and KKT residual.  A
    skipped snapshot's zero powers give it rates of exactly 0."""
    powers = itf.PowerAllocation(
        p_d2d=np.stack([res.powers.p_d2d for res in results]),
        p_cu=itf.uniform_cu_powers(config))
    actual, predicted = (
        rate_from_sinr(x, config.subcarrier_spacing).sum(axis=-1).mean(axis=-1)
        for x in itf.d2d_sinr_matrices(gains, powers, tables, smap,
                                       config.noise_per_subcarrier_w, kind))
    return [predicted, actual] + [
        np.array([getattr(res, name) for res in results])
        for name in ("status", "iterations_used", "kkt_residual")]


def run_iteration(config, tables, streams):
    """One block of snapshots, one per seed stream, both waveform cases of
    each; returns the block's ``CampaignRecord``.  A case whose power
    loading is skipped (negative CU headroom) is infeasible and has zero
    rates.

    Each snapshot draws its placement, its LOS uniforms and its CU map from
    its own generator.  Gains, cost matrices, SINR and rates are computed
    for the whole block at once.  Each case runs its assignments and builds
    its power-loading problems for the block, then the solves run per
    snapshot and case, OFDM then FBMC, each on its slice of the problems.
    """
    rngs = [np.random.default_rng(stream) for stream in streams]
    placements = [geo.sample_placement(config, rng) for rng in rngs]
    block = geo.NodePlacement(
        *(np.stack([getattr(p, name) for p in placements])
          for name in ("cu_pos", "d2d_tx_pos", "d2d_rx_pos")))
    gains = ch.gains_from_placement(block, config, rngs)
    maps = [itf.random_cu_map(config, rng) for rng in rngs]
    zero = itf.PowerAllocation(
        p_d2d=np.zeros((config.num_d2d_pairs, config.subcarriers_per_rb)),
        p_cu=itf.uniform_cu_powers(config))
    block_map = itf.SpectrumMap(
        rb_of_cu=np.stack([m.rb_of_cu for m in maps]), num_rbs=config.num_rbs,
        subcarriers_per_rb=config.subcarriers_per_rb)

    assignments, case_maps, problems = [], [], []    # one entry per case
    for case in Case:
        cost = itf.cu_to_d2d_cost_matrix(
            gains, zero, tables[(WaveformType.OFDM, case.waveform)], block_map)
        assignments.append([al.hungarian(c) for c in cost])
        case_maps.append(replace(block_map, rb_of_d2d=np.stack(
            [a.rb_of_pair for a in assignments[-1]])))
        problems.append(list(zip(*al.loading_problems(
            gains, tables, case_maps[-1], config, case.waveform))))
    results = [[] for _ in Case]    # [case][snapshot]
    for k, smap in enumerate(maps):
        snapshot = gains[k]
        for case, assigned, problem, done in zip(Case, assignments, problems,
                                                 results):
            done.append(al.power_loading(assigned[k], snapshot, tables, smap,
                                         config, case.waveform,
                                         problem=problem[k]))

    radius, distance = np.array(
        [(p.cluster_radius, float(np.linalg.norm(p.cluster_centre)))
         if p.cluster_centre is not None else (np.nan, np.nan)
         for p in placements]).T
    columns = zip(*(
        _case_columns(gains, case_map, done, tables, config, case.waveform)
        for case, case_map, done in zip(Case, case_maps, results)))
    return CampaignRecord(*(np.stack(c, axis=1) for c in columns),
                          radius, distance)


def run_campaign(config, tables, jobs=0):
    """Aggregate ``config.iterations`` independent snapshots into a report.

    Snapshots run in blocks of ``BLOCK_SIZE``, fixed by snapshot index, and
    spread over ``min(jobs, blocks)`` worker processes.  A pool starts only
    if that is at least two: one worker would only fork and pickle the
    tables.  Each snapshot owns a spawned seed stream and its result does
    not depend on its block-mates, so the report is identical for any degree.
    """
    if jobs < 0:
        raise ValueError("jobs must be >= 0, got %d" % jobs)
    streams = np.random.SeedSequence(config.seed).spawn(config.iterations)
    blocks = [streams[i:i + BLOCK_SIZE]
              for i in range(0, len(streams), BLOCK_SIZE)]
    workers = min(jobs, len(blocks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(run_iteration, [config] * len(blocks),
                                 [tables] * len(blocks), blocks))
    else:
        done = [run_iteration(config, tables, block) for block in blocks]
    return build_report(CampaignRecord(
        *(np.concatenate([getattr(r, f.name) for r in done])
          for f in fields(CampaignRecord))), config.num_d2d_pairs)


def build_report(record, num_pairs):
    """Report of a campaign record of ``num_pairs`` pairs.  The CU headroom
    does not depend on the waveform, so a snapshot is skipped in both cases
    or in neither; a ``ValueError`` names the first snapshot that splits."""
    feasible = record.feasible
    split = np.flatnonzero(feasible[:, 0] != feasible[:, 1])
    if split.size:
        raise ValueError("snapshot %d must be skipped in both cases or in "
                         "neither" % split[0])
    keep = feasible[:, 0]
    iterations = len(keep)
    # one sorted (series, samples) array, its rows in _COLUMNS order
    samples = np.sort(np.stack(
        (record.rate_actual[keep].T, record.rate_predicted[keep].T),
        axis=1).reshape(len(_COLUMNS), -1), axis=1)
    n = samples.shape[1]
    if n == 0:
        raise EmptyReportError("all %d iterations were infeasible" % iterations)

    lo, hi = samples.min(), samples.max()
    if hi <= lo:
        hi = lo + 1.0
    grid = np.linspace(lo, hi, CDF_GRID_POINTS)
    stats = {"mean": samples.mean(axis=1),
             "median": np.median(samples, axis=1)}
    stats["p5"], stats["p95"] = np.percentile(samples, (5, 95), axis=1)
    cdf = {}
    summary = {}
    for row, key in enumerate(_COLUMNS):
        cdf[key] = np.searchsorted(samples[row], grid, side="right") / n
        for stat, values in stats.items():
            summary[key + (stat,)] = float(values[row])
    return RateReport(iterations=iterations, skipped=iterations - n,
                      cdf_grid=grid, cdf=cdf, summary=summary,
                      record=record, num_pairs=num_pairs)


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

def write_samples_csv(report, path):
    rows = ["iteration," + ",".join(Sample._fields)]
    for it, r in report.results:
        rows.append("%d,%s,%.9g,%.9g,%d,%.9g,%.9g,%d"
                    % ((it, r.case.value) + r[1:]))
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


def write_gnuplot_cdf(path):
    _write_gnuplot(path, "Average rate per D2D pair (bit/s)", "CDF",
                   "bottom right", "lines", "cdf.csv")


def write_gnuplot_sweep(parameter, path):
    _write_gnuplot(path, parameter.value.lower(),
                   "Mean rate per D2D pair (bit/s)", "top right",
                   "linespoints", "sweep.csv")
