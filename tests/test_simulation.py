import inspect

import numpy as np
import pytest

import d2d_underlay as d
from d2d_underlay import allocation as al
from d2d_underlay import channel as ch
from d2d_underlay import interference as itf
from d2d_underlay import simulation as sim


def test_rate_from_sinr_values():
    assert d.rate_from_sinr(0.0, 15e3) == 0.0
    assert d.rate_from_sinr(1.0, 15e3) == pytest.approx(15e3)
    assert d.rate_from_sinr(3.0, 15e3) == pytest.approx(30e3)


def test_single_pair_no_gap(tables):
    cfg = d.with_updates(d.ScenarioConfig(), num_d2d_pairs=1)
    [results] = d.run_iteration(cfg, tables, [np.random.SeedSequence(4)])
    assert len(results) == 2
    for r in results:
        assert r.feasible
        assert r.rate_actual == pytest.approx(r.rate_predicted, rel=1e-12)


def test_iteration_paired_and_dominated(tables):
    cfg = d.ScenarioConfig()
    [results] = d.run_iteration(cfg, tables, [np.random.SeedSequence(4)])
    cases = {r.case for r in results}
    assert cases == {sim.Case.D2D_OFDM, sim.Case.D2D_FBMC}
    for r in results:
        assert 0.0 <= r.rate_actual <= r.rate_predicted + 1e-9
        assert r.num_pairs == cfg.num_d2d_pairs
    # both cases annotate the same snapshot
    r0, r1 = results
    assert r0.cluster_radius == r1.cluster_radius
    assert r0.cluster_distance == r1.cluster_distance


def test_campaign_basics(tables):
    cfg = d.with_updates(d.ScenarioConfig(), iterations=5)
    rep = d.run_campaign(cfg, tables)
    assert rep.iterations == 5
    for c in sim.Case:
        assert len(rep.actual[c]) == 5 - rep.skipped
        assert np.all(np.diff(rep.actual[c]) >= 0)       # sorted samples
        cdf = rep.cdf[(c, "actual")]
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[-1] == pytest.approx(1.0)
        s = rep.summary
        assert s[(c, "actual", "p5")] <= s[(c, "actual", "median")] \
            <= s[(c, "actual", "p95")]


def test_campaign_determinism(tables):
    cfg = d.with_updates(d.ScenarioConfig(), iterations=4)
    a = d.run_campaign(cfg, tables)
    b = d.run_campaign(cfg, tables)
    for c in sim.Case:
        assert np.array_equal(a.actual[c], b.actual[c])
        assert np.array_equal(a.predicted[c], b.predicted[c])


def test_campaign_single_iteration(tables):
    cfg = d.with_updates(d.ScenarioConfig(), iterations=1)
    rep = d.run_campaign(cfg, tables)
    for c in sim.Case:
        assert len(rep.actual[c]) + rep.skipped == 1


def test_campaign_all_infeasible_raises(tables):
    cfg = d.with_updates(d.ScenarioConfig(), iterations=3, cu_min_sinr=90.0)
    with pytest.raises(d.EmptyReportError):
        d.run_campaign(cfg, tables)


def test_campaign_parallel_matches_sequential(tables):
    cfg = d.with_updates(d.ScenarioConfig(), iterations=6)
    a = d.run_campaign(cfg, tables)
    b = d.run_campaign(cfg, tables, jobs=2)
    for c in sim.Case:
        assert np.array_equal(a.actual[c], b.actual[c])


def test_blocks_independent_of_jobs_and_block_mates(tmp_path, tables):
    """17 snapshots make one full block and one snapshot alone.  The report
    is the same at jobs=0 and jobs=2, and every snapshot's results equal
    those of ``run_iteration`` on its own stream alone, so no snapshot's
    arithmetic depends on its block-mates."""
    cfg = d.with_updates(d.ScenarioConfig(), iterations=sim.BLOCK_SIZE + 1)
    seq = d.run_campaign(cfg, tables)
    pooled = d.run_campaign(cfg, tables, jobs=2)
    d.write_samples_csv(seq, tmp_path / "seq.csv")
    d.write_samples_csv(pooled, tmp_path / "pooled.csv")
    assert (tmp_path / "seq.csv").read_bytes() == \
        (tmp_path / "pooled.csv").read_bytes()
    assert seq.results == pooled.results
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.iterations)
    for it, stream in enumerate(streams):
        [alone] = d.run_iteration(cfg, tables, [stream])
        assert [r for i, r in seq.results if i == it] == alone


def test_report_counts_max_iter_apart(tables, monkeypatch):
    """Each case result carries its solve's status, Newton steps and KKT
    residual, and the report counts every status, so a MAX_ITER solve is
    not mistaken for an OPTIMAL one.  With the Newton steps bounded at 5,
    this campaign (11 pairs, seed 951026653) ends some solves OPTIMAL and
    some MAX_ITER; the counts must match what a recorder on
    ``al.power_loading`` sees."""
    solves = []
    power_loading = al.power_loading

    def record(*args):
        solves.append(power_loading(*args))
        return solves[-1]

    monkeypatch.setattr(al, "power_loading", record)
    monkeypatch.setattr(al, "MAX_NEWTON_STEPS", 5)
    cfg = d.with_updates(d.ScenarioConfig(), num_d2d_pairs=11,
                         seed=951026653, iterations=8)
    rep = d.run_campaign(cfg, tables)
    assert [(r.status, r.newton_steps, r.kkt_residual)
            for _, r in rep.results] == \
        [(s.status, s.iterations_used, s.kkt_residual) for s in solves]
    for status in al.SolverStatus:
        assert rep.solver_status[status] == sum(s.status is status
                                                for s in solves)
    assert sum(rep.solver_status.values()) == 2 * cfg.iterations
    assert rep.solver_status[al.SolverStatus.OPTIMAL] > 0
    assert rep.solver_status[al.SolverStatus.MAX_ITER] > 0


def test_campaign_rejects_negative_jobs(tables):
    with pytest.raises(ValueError, match="jobs"):
        d.run_campaign(d.ScenarioConfig(), tables, jobs=-1)


def test_sweep_reports_offending_value(tables):
    cfg = d.with_updates(d.ScenarioConfig(), iterations=1)
    with pytest.raises(d.ConfigurationError, match="NUM_PAIRS = 99"):
        d.sweep(cfg, sim.SweepParameter.NUM_PAIRS, [99], tables)
    with pytest.raises(d.ConfigurationError):
        # radius larger than the cell fails when the point runs
        d.sweep(cfg, sim.SweepParameter.CLUSTER_RADIUS, [300.0], tables)


@pytest.mark.parametrize("parameter,values", [
    (sim.SweepParameter.NUM_PAIRS, [5, 9, 13]),
    (sim.SweepParameter.CLUSTER_RADIUS, [40.0, 80.0]),
    (sim.SweepParameter.CLUSTER_DISTANCE, [0.0, 100.0]),
])
def test_sweep_configs_seed_each_point(parameter, values):
    """Point ``idx`` carries seed ``seed + 7919 * idx`` on its config, so
    checking the point configs checks their seeds too."""
    cfg = d.with_updates(d.ScenarioConfig(), seed=17)
    configs = sim.sweep_configs(cfg, parameter, values)
    assert [c.seed for c in configs] == [17 + 7919 * i
                                         for i in range(len(values))]


def test_sweep_series(tables):
    cfg = d.with_updates(d.ScenarioConfig(), iterations=2)
    pts = d.sweep(cfg, sim.SweepParameter.NUM_PAIRS, [3, 6], tables)
    assert [v for v, _ in pts] == [3, 6]
    for _, rep in pts:
        assert rep.iterations == 2


def test_output_files(tmp_path, tables):
    cfg = d.with_updates(d.ScenarioConfig(), iterations=3)
    rep = d.run_campaign(cfg, tables)
    samples = tmp_path / "samples.csv"
    cdf = tmp_path / "cdf.csv"
    d.write_samples_csv(rep, samples)
    d.write_cdf_csv(rep, cdf)
    lines = samples.read_text().splitlines()
    assert lines[0].startswith("iteration,case,rate_predicted,rate_actual")
    assert len(lines) == 1 + 2 * 3
    lines = cdf.read_text().splitlines()
    assert len(lines) == 1 + sim.CDF_GRID_POINTS

    pts = d.sweep(cfg, sim.SweepParameter.CLUSTER_RADIUS, [60.0, 80.0], tables)
    out = tmp_path / "sweep.csv"
    d.write_sweep_csv(sim.SweepParameter.CLUSTER_RADIUS, pts, out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("cluster_radius,")
    assert len(lines) == 3

    gp = tmp_path / "cdf.gp"
    d.write_gnuplot_cdf(gp)
    assert "cdf.csv" in gp.read_text()
    gp2 = tmp_path / "sweep.gp"
    d.write_gnuplot_sweep(sim.SweepParameter.CLUSTER_RADIUS, gp2)
    assert "sweep.csv" in gp2.read_text()


def test_infeasible_iteration_marks_both_cases(tables):
    # a 47 dB floor skips most default snapshots but not all, so a
    # waveform-dependent skip would show as a split
    cfg = d.with_updates(d.ScenarioConfig(), cu_min_sinr=47.0)
    outcomes = []
    streams = np.random.SeedSequence(cfg.seed).spawn(100)
    for stream, results in zip(streams, d.run_iteration(cfg, tables, streams)):
        flags = [r.feasible for r in results]
        assert len(set(flags)) == 1          # never split across cases
        if not flags[0]:
            assert all(r.rate_actual == r.rate_predicted == 0.0
                       for r in results)
        # skipped block-mates, with their zero powers, leave every
        # snapshot's results as they are alone
        assert results == d.run_iteration(cfg, tables, [stream])[0]
        outcomes.append(flags[0])
    assert 0 < sum(outcomes) < len(outcomes), sum(outcomes)


def check_recorded_solve(args, result):
    """An outside-in check of one power_loading outcome from its positional
    arguments: a skipped snapshot really has negative CU headroom; an
    OPTIMAL one is KKT-accurate, within every pair's cap and meets every
    CU's SINR floor, recomputed from the returned powers."""
    assignment, gains, tables, smap, config, kind = args
    smap = smap.with_assignment(assignment.rb_of_pair)
    if result.status is al.SolverStatus.INFEASIBLE_SKIPPED:
        _, thresholds = al.cu_constraint_coefficients(
            gains, tables, smap, itf.uniform_cu_powers(config), config, kind)
        assert np.any(thresholds < 0)
        return
    assert result.status is al.SolverStatus.OPTIMAL
    assert result.kkt_residual < al.KKT_TOLERANCE
    p = result.powers.p_d2d
    assert np.all(np.isfinite(p)) and np.all(p >= 0)
    assert np.all(p.sum(axis=1) <= config.max_tx_power_w * (1 + 1e-9))
    sinr = itf.cu_sinr_all(gains, result.powers, tables, smap,
                           config.noise_per_subcarrier_w, kind)
    assert np.all(sinr >= 10 ** (config.cu_min_sinr / 10) * (1 - 1e-9))


@pytest.mark.parametrize("layout", list(d.Layout))
def test_campaign_solve_contract(tables, monkeypatch, layout):
    """A campaign reaches the solver through the ``al.power_loading``
    attribute, once per snapshot and case, with the six arguments by
    position.  Benchmark tracing wraps that attribute to see every solve,
    so a pipeline that bypasses it must fail here first."""
    calls = []
    power_loading = al.power_loading

    def record(*args, **kwargs):
        result = power_loading(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(al, "power_loading", record)
    cfg = d.with_updates(d.ScenarioConfig(), iterations=5, layout=layout)
    d.run_campaign(cfg, tables)
    assert len(calls) == 2 * cfg.iterations
    names = list(inspect.signature(power_loading).parameters)
    assert names == ["assignment", "gains", "tables", "smap", "config",
                     "d2d_kind"]
    for k, (args, kwargs, result) in enumerate(calls):
        assert kwargs == {} and len(args) == len(names)
        assignment, gains, tabs, smap, config, kind = args
        assert isinstance(assignment, al.Assignment)
        assert isinstance(gains, ch.ChannelGains)
        assert tabs is tables
        assert isinstance(smap, itf.SpectrumMap)
        assert config == cfg
        assert kind is list(sim.Case)[k % 2].waveform
        assert isinstance(result, al.PowerLoadingResult)
        check_recorded_solve(args, result)
    assert any(r.status is al.SolverStatus.OPTIMAL for _, _, r in calls)
