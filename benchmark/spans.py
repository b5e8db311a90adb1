"""Outside-in tracing of the d2d_underlay layers for the benchmark.

Spans are recorded by replacing, for the duration of a ``with`` block, the
module attributes that the library calls through (``geo.sample_placement``,
``al.power_loading``, ...) with timing wrappers.  The library itself is not
edited.  Spans are kept in memory; ``layer_metrics`` reduces them to the
per-layer metrics named in BENCHMARK.json.

Wrapped functions cannot be pickled, so traced campaigns must run
sequentially (``jobs=0``).
"""
from __future__ import annotations

import contextlib
import time

import numpy as np
import scipy.optimize

from d2d_underlay import allocation as al
from d2d_underlay import channel as ch
from d2d_underlay import geometry as geo
from d2d_underlay import interference as itf
from d2d_underlay import simulation as sim
from d2d_underlay import waveform as wf

# (span name, owner, attribute).  power_loading reaches L-BFGS-B through
# ``al.minimize`` and its active-set polish through ``scipy.optimize.root``
# (imported at call time), so both are wrapped as its children.
TARGETS = [
    ("geometry.sample_placement", geo, "sample_placement"),
    ("channel.gains_from_placement", ch, "gains_from_placement"),
    ("interference.random_cu_map", itf, "random_cu_map"),
    ("interference.cu_to_d2d_cost_matrix", itf, "cu_to_d2d_cost_matrix"),
    ("interference.d2d_sinr_matrices", itf, "d2d_sinr_matrices"),
    ("allocation.hungarian", al, "hungarian"),
    ("allocation.power_loading", al, "power_loading"),
    ("allocation.lbfgsb", al, "minimize"),
    ("allocation.polish", scipy.optimize, "root"),
    ("waveform.build_phydyas_filter", wf, "build_phydyas_filter"),
    ("waveform.table_from_time_sim", wf, "table_from_time_sim"),
    ("waveform.band_kernels", wf.InterferenceTable, "band_kernels"),
    ("simulation.run_iteration", sim, "run_iteration"),
    ("simulation.build_report", sim, "build_report"),
    ("simulation.write_samples_csv", sim, "write_samples_csv"),
    ("simulation.write_cdf_csv", sim, "write_cdf_csv"),
    ("simulation.write_sweep_csv", sim, "write_sweep_csv"),
]

SNAPSHOT_SPAN = "simulation.run_iteration"


class Tracer:
    """In-memory spans: [name, start, end, parent index, snapshot id]."""

    def __init__(self):
        self.spans = []
        self.solves = []            # (args, kwargs, PowerLoadingResult)
        self.kernels_seen = set()   # ids of BandKernels objects returned
        self.kernel_hits = 0
        self._stack = []
        self._snapshot = -1

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            if name == SNAPSHOT_SPAN:
                self._snapshot += 1
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    self._snapshot]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            self._observe(name, args, kwargs, result)
            return result
        return traced

    def _observe(self, name, args, kwargs, result):
        if name == "allocation.power_loading":
            self.solves.append((args, kwargs, result))
        elif name == "waveform.band_kernels":
            # the table caches its kernels, so a hit returns an object
            # already handed out
            if id(result) in self.kernels_seen:
                self.kernel_hits += 1
            self.kernels_seen.add(id(result))


@contextlib.contextmanager
def tracing(tracer):
    """Replace every TARGETS attribute by a span-recording wrapper."""
    saved = []
    try:
        for name, owner, attr in TARGETS:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextlib.contextmanager
def collecting_solves(solves):
    """Record every power_loading call as (args, kwargs, result), untimed."""
    original = al.power_loading

    def collect(*args, **kwargs):
        result = original(*args, **kwargs)
        solves.append((args, kwargs, result))
        return result

    al.power_loading = collect
    try:
        yield solves
    finally:
        al.power_loading = original


def check_solve(args, kwargs, result):
    """Outside-in check of one power_loading outcome; True when it holds.

    An OPTIMAL solve needs its KKT residual below tolerance, every pair's
    power within the cap, and every CU's SINR (recomputed from the returned
    powers) at least ``cu_min_sinr``.  A skipped solve needs a snapshot that
    really has negative CU headroom.  MAX_ITER always counts as failed.
    """
    names = ("assignment", "gains", "tables", "smap", "config", "d2d_kind")
    bound = dict(zip(names, args), **kwargs)
    assignment, gains, tables = (bound["assignment"], bound["gains"],
                                 bound["tables"])
    config, kind = bound["config"], bound["d2d_kind"]
    smap = bound["smap"].with_assignment(assignment.rb_of_pair)
    if result.status is al.SolverStatus.INFEASIBLE_SKIPPED:
        _, thresholds = al.cu_constraint_coefficients(
            gains, tables, smap, itf.uniform_cu_powers(config), config, kind)
        return bool(np.any(thresholds < 0))
    if result.status is not al.SolverStatus.OPTIMAL:
        return False
    p = result.powers.p_d2d
    if not (result.kkt_residual < al.KKT_TOLERANCE and np.all(np.isfinite(p))
            and np.all(p >= 0)):
        return False
    if np.any(p.sum(axis=1) > config.max_tx_power_w * (1 + 1e-9)):
        return False
    sinr = itf.cu_sinr_all(gains, result.powers, tables, smap,
                           config.noise_per_subcarrier_w, kind)
    gamma_min = 10.0 ** (config.cu_min_sinr / 10.0)
    return bool(np.all(sinr >= gamma_min * (1 - 1e-9)))


def count_solve_failures(solves):
    """(attempted, failed) over recorded power_loading calls."""
    failed = sum(not check_solve(a, k, r) for a, k, r in solves)
    return len(solves), failed


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer):
    """Per-layer metrics (name -> (value, unit)) from the recorded spans."""
    ms = {}
    self_ms = {}
    child_ms = [0.0] * len(tracer.spans)
    for name, start, end, parent, _ in tracer.spans:
        if parent is not None:
            child_ms[parent] += (end - start) * 1e3
    for (name, start, end, _, _), children in zip(tracer.spans, child_ms):
        d = (end - start) * 1e3
        ms.setdefault(name, []).append(d)
        self_ms[name] = self_ms.get(name, 0.0) + d - children
    for name, _, _ in TARGETS:
        ms.setdefault(name, [])

    out = {}

    def put(key, value, unit):
        out[key] = (float(value), unit)

    for name in ("geometry.sample_placement", "channel.gains_from_placement",
                 "allocation.hungarian", "allocation.power_loading"):
        put(name + ".calls", len(ms[name]), "count")
        put(name + ".ms_p50", _pct(ms[name], 50), "ms")
        put(name + ".ms_p99", _pct(ms[name], 99), "ms")
    for name in ("interference.cu_to_d2d_cost_matrix",
                 "interference.d2d_sinr_matrices",
                 "interference.random_cu_map"):
        put(name + ".calls", len(ms[name]), "count")
        put(name + ".ms_p50", _pct(ms[name], 50), "ms")

    pl = "allocation.power_loading"
    snapshot_ms = sum(ms[SNAPSHOT_SPAN])
    put(pl + ".self_ms_total", self_ms.get(pl, 0.0), "ms")
    put(pl + ".share", sum(ms[pl]) / snapshot_ms if snapshot_ms else 0.0,
        "ratio")
    results = [r for _, _, r in tracer.solves]
    solved = [r for r in results
              if r.status is not al.SolverStatus.INFEASIBLE_SKIPPED]
    iters = [r.iterations_used for r in solved]
    put(pl + ".dual_iters_p50", _pct(iters, 50), "iters")
    put(pl + ".dual_iters_max", max(iters, default=0), "iters")
    put(pl + ".kkt_max", max((r.kkt_residual for r in solved), default=0.0),
        "ratio")
    for status in al.SolverStatus:
        key = {"OPTIMAL": "optimal", "MAX_ITER": "max_iter",
               "INFEASIBLE_SKIPPED": "infeasible"}[status.value]
        put("%s.status_%s" % (pl, key),
            sum(r.status is status for r in results), "count")
    n = max(len(solved), 1)
    put("allocation.lbfgsb_attempts_per_solve",
        len(ms["allocation.lbfgsb"]) / n, "per_solve")
    put("allocation.polish_rate", len(ms["allocation.polish"]) / n,
        "per_solve")

    for name in ("waveform.build_phydyas_filter", "waveform.table_from_time_sim"):
        put(name + ".ms", _pct(ms[name], 50), "ms")
    calls = len(ms["waveform.band_kernels"])
    put("waveform.band_kernels.calls", calls, "count")
    put("waveform.band_kernels.hit_ratio",
        tracer.kernel_hits / calls if calls else 0.0, "ratio")

    put(SNAPSHOT_SPAN + ".ms_p50", _pct(ms[SNAPSHOT_SPAN], 50), "ms")
    put(SNAPSHOT_SPAN + ".ms_p99", _pct(ms[SNAPSHOT_SPAN], 99), "ms")
    for name in ("simulation.build_report", "simulation.write_samples_csv",
                 "simulation.write_cdf_csv", "simulation.write_sweep_csv"):
        put(name + ".ms", _pct(ms[name], 50), "ms")
    return out
