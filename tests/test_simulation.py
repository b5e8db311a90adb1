import concurrent.futures
import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import d2d_underlay as d
from d2d_underlay import allocation as al
from d2d_underlay import channel as ch
from d2d_underlay import interference as itf
from d2d_underlay import simulation as sim


def test_rate_from_sinr_values():
    assert d.rate_from_sinr(0.0, 15e3) == 0.0
    assert d.rate_from_sinr(1.0, 15e3) == pytest.approx(15e3)
    assert d.rate_from_sinr(3.0, 15e3) == pytest.approx(30e3)


# the CampaignRecord columns that hold one value per snapshot and case
CASE_COLUMNS = ("rate_predicted", "rate_actual", "status", "newton_steps",
                "kkt_residual")


def assert_records_equal(a, b):
    for f in dataclasses.fields(sim.CampaignRecord):
        np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name))


def rows(record, index):
    """The rows of ``record`` at ``index``, as a record."""
    return sim.CampaignRecord(*(getattr(record, f.name)[index]
                                for f in dataclasses.fields(record)))


def in_solve_order(column):
    """A ``(snapshots, 2)`` record column as a list in the order its solves
    run: block, then case, then snapshot."""
    return [x for start in range(0, len(column), sim.BLOCK_SIZE)
            for x in column[start:start + sim.BLOCK_SIZE].T.ravel().tolist()]


def changed(a, b):
    """Per snapshot and case, whether any of its CASE_COLUMNS differs
    between records ``a`` and ``b``."""
    return np.any([getattr(a, name) != getattr(b, name)
                   for name in CASE_COLUMNS], axis=0)


def test_single_pair_no_gap(tables):
    cfg = d.with_updates(d.ScenarioConfig(), num_d2d_pairs=1)
    record = d.run_iteration(cfg, tables, [np.random.SeedSequence(4)])
    assert record.rate_actual.shape == (1, 2)
    assert record.feasible.all()
    np.testing.assert_allclose(record.rate_actual, record.rate_predicted,
                               rtol=1e-12, atol=0)


def test_iteration_paired_and_dominated(tables):
    """One snapshot gives one row: a value per case in each per-case column,
    and one cluster radius and distance that both cases share."""
    cfg = d.ScenarioConfig()
    record = d.run_iteration(cfg, tables, [np.random.SeedSequence(4)])
    for name in CASE_COLUMNS:
        assert getattr(record, name).shape == (1, len(sim.Case))
    assert record.cluster_radius.shape == record.cluster_distance.shape \
        == (1,)
    assert np.all(0.0 <= record.rate_actual)
    assert np.all(record.rate_actual <= record.rate_predicted + 1e-9)


def test_campaign_basics(tables):
    cfg = d.with_updates(d.ScenarioConfig(), iterations=5)
    rep = d.run_campaign(cfg, tables)
    assert rep.iterations == 5
    assert np.array_equal(rep.record.feasible.sum(axis=0),
                          [5 - rep.skipped] * 2)
    for c in sim.Case:
        cdf = rep.cdf[(c, "actual")]
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[-1] == pytest.approx(1.0)
        s = rep.summary
        assert s[(c, "actual", "p5")] <= s[(c, "actual", "median")] \
            <= s[(c, "actual", "p95")]


def test_report_statistics_match_numpy_per_series(tables):
    """Each summary statistic and CDF equals numpy's, bit for bit, on its
    own sorted (case, variant) series, on a campaign that skips most
    snapshots (a 47 dB CU floor skips 53 of these 60)."""
    cfg = d.with_updates(d.ScenarioConfig(), cu_min_sinr=47.0, iterations=60,
                         seed=0)
    rep = d.run_campaign(cfg, tables)
    assert rep.skipped == 53
    for k, c in enumerate(sim.Case):
        for variant, field in (("actual", "rate_actual"),
                               ("predicted", "rate_predicted")):
            column = getattr(rep.record, field)
            series = np.sort(column[rep.record.feasible[:, k], k])
            assert len(series) == 60 - 53
            stat = {name: rep.summary[(c, variant, name)]
                    for name in ("mean", "median", "p5", "p95")}
            assert stat == {"mean": float(np.mean(series)),
                            "median": float(np.median(series)),
                            "p5": float(np.percentile(series, 5)),
                            "p95": float(np.percentile(series, 95))}
            assert np.array_equal(
                rep.cdf[(c, variant)],
                np.searchsorted(series, rep.cdf_grid, side="right")
                / len(series))


def test_report_of_equal_rates_spans_one_unit():
    """When every kept rate is the same value, the CDF grid runs from it to
    it + 1 bit/s, each CDF is 1 at every point, and each statistic is the
    value."""
    rate = 2.5e6
    shape = (3, len(sim.Case))
    record = sim.CampaignRecord(
        rate_predicted=np.full(shape, rate), rate_actual=np.full(shape, rate),
        status=np.full(shape, al.SolverStatus.OPTIMAL),
        newton_steps=np.ones(shape, dtype=int),
        kkt_residual=np.zeros(shape), cluster_radius=np.full(3, np.nan),
        cluster_distance=np.full(3, np.nan))
    rep = sim.build_report(record, 4)
    assert (rep.iterations, rep.skipped) == (3, 0)
    assert np.array_equal(rep.cdf_grid,
                          np.linspace(rate, rate + 1.0, sim.CDF_GRID_POINTS))
    for key in sim._COLUMNS:
        assert np.array_equal(rep.cdf[key], np.ones(sim.CDF_GRID_POINTS))
    assert set(rep.summary.values()) == {rate}


@pytest.mark.parametrize("layout", list(d.Layout))
def test_equal_tables_make_the_cases_identical(tables, layout):
    """With one table in all four slots, the two waveform cases see the same
    numbers, so every result of a campaign matches across the cases bit for
    bit: rates, feasibility, solver status, Newton steps and KKT
    residual."""
    one = tables[(d.WaveformType.OFDM, d.WaveformType.OFDM)]
    same = {key: one for key in tables}
    cfg = d.with_updates(d.ScenarioConfig(), iterations=40, layout=layout)
    record = d.run_campaign(cfg, same).record
    assert record.status.shape == (cfg.iterations, 2)
    for name in CASE_COLUMNS:
        column = getattr(record, name)
        assert np.array_equal(column[:, 0], column[:, 1])
    assert record.feasible.any()


# the config fields that a common dB shift moves together
POWERS = ("noise_per_subcarrier", "max_tx_power", "cu_tx_power")
OFDM, FBMC = d.WaveformType.OFDM, d.WaveformType.FBMC_OQAM
# the case that reads each (interferer, victim) table
READERS = {(OFDM, OFDM): sim.Case.D2D_OFDM, (OFDM, FBMC): sim.Case.D2D_FBMC,
           (FBMC, OFDM): sim.Case.D2D_FBMC, (FBMC, FBMC): sim.Case.D2D_FBMC}


def small_campaign(tables, layout, **updates):
    """The record of a 40-snapshot campaign of 4 pairs on 6 RBs."""
    cfg = d.with_updates(d.ScenarioConfig(), num_rbs=6, num_d2d_pairs=4,
                         iterations=40, layout=layout, **updates)
    return d.run_campaign(cfg, tables).record


@pytest.mark.parametrize("layout", list(d.Layout))
def test_a_common_power_shift_leaves_the_campaign_unchanged(tables, layout):
    """SINRs and the normalized power-loading problem depend on powers only
    through their ratios, so shifting the noise floor, the D2D power cap and
    the CU power by the same dB keeps every feasibility flag and every rate
    within 1e-12 relative.  A 47 dB CU floor skips 22 of the 40 snapshots,
    so the flags are not all alike; there the CU headroom is a difference
    of nearly equal terms, whose rounding moves rates by up to 1.3e-12."""
    base_cfg = d.ScenarioConfig()
    for cu_min_sinr, skips, rtol in ((10.0, 0, 1e-12), (47.0, 22, 1e-10)):
        base = small_campaign(tables, layout, cu_min_sinr=cu_min_sinr)
        assert np.count_nonzero(~base.feasible) == 2 * skips
        for shift in (10.0, -17.0):
            moved = {name: getattr(base_cfg, name) + shift for name in POWERS}
            record = small_campaign(tables, layout, cu_min_sinr=cu_min_sinr,
                                    **moved)
            assert np.array_equal(record.feasible, base.feasible)
            for name in ("rate_actual", "rate_predicted"):
                np.testing.assert_allclose(getattr(record, name),
                                           getattr(base, name),
                                           rtol=rtol, atol=0)


def zeroed(tables, key):
    """The tables with the ``key`` table's coefficients all 0."""
    return {**tables, key: dataclasses.replace(
        tables[key], coeffs=np.zeros_like(tables[key].coeffs))}


@pytest.mark.parametrize("layout", list(d.Layout))
def test_a_zeroed_table_changes_only_the_case_that_reads_it(tables, layout):
    """The OFDM case reads only the OFDM->OFDM table; the FBMC case reads
    OFDM->FBMC (CU into D2D), FBMC->OFDM (D2D into CU) and FBMC->FBMC (D2D
    into D2D).  Zeroing one table changes every result of the case that
    reads it and no result of the other.  Zeroing a case's D2D->D2D table
    removes its inter-D2D interference, so its actual rate equals its
    predicted rate exactly."""
    base = small_campaign(tables, layout)
    for key, reader in READERS.items():
        k = list(sim.Case).index(reader)
        record = small_campaign(zeroed(tables, key), layout)
        diff = changed(record, base)
        assert diff[:, k].all() and not diff[:, 1 - k].any()
        if key[0] is key[1]:
            assert np.array_equal(record.rate_actual[:, k],
                                  record.rate_predicted[:, k])


@st.composite
def small_configs(draw):
    """2 to 8 RBs, 1 pair up to one per RB, 1, 2 or 12 subcarriers per RB,
    either layout: 20 snapshots at the default CU SINR floor."""
    num_rbs = draw(st.integers(2, 8))
    return d.with_updates(
        d.ScenarioConfig(), num_rbs=num_rbs,
        num_d2d_pairs=draw(st.integers(1, num_rbs)),
        subcarriers_per_rb=draw(st.sampled_from([1, 2, 12])),
        layout=draw(st.sampled_from(list(d.Layout))),
        seed=draw(st.integers(0, 2 ** 32 - 1)), iterations=20)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(cfg=small_configs())
@example(cfg=d.with_updates(d.ScenarioConfig(), num_rbs=8, num_d2d_pairs=8,
                            iterations=20))
def test_relations_hold_on_small_configs(tables, cfg):
    """The three relations above, on drawn configs: a common power shift
    keeps every flag and every rate within 1e-12; one table in all four
    slots makes the cases bit-identical; zeroing one table leaves the other
    case bit-identical, changes every feasible result of the case that
    reads it for CU-into-D2D leakage, and, for a D2D->D2D table, makes the
    reading case's actual rate equal its predicted rate."""

    def record(tabs, config=cfg):
        return d.run_campaign(config, tabs).record

    base = record(tables)
    for shift in (10.0, -17.0):
        moved = record(tables, d.with_updates(
            cfg, **{name: getattr(cfg, name) + shift for name in POWERS}))
        assert np.array_equal(moved.feasible, base.feasible)
        for name in ("rate_actual", "rate_predicted"):
            np.testing.assert_allclose(getattr(moved, name),
                                       getattr(base, name), rtol=1e-12, atol=0)

    same = record({key: tables[(OFDM, OFDM)] for key in tables})
    for name in CASE_COLUMNS:
        column = getattr(same, name)
        assert np.array_equal(column[:, 0], column[:, 1])

    for key, reader in READERS.items():
        k = list(sim.Case).index(reader)
        zero = record(zeroed(tables, key))
        diff = changed(zero, base)
        assert not diff[:, 1 - k].any()
        if key[0] is OFDM:
            assert diff[base.feasible[:, k], k].all()
        if key[0] is key[1]:
            assert np.array_equal(zero.rate_actual[:, k],
                                  zero.rate_predicted[:, k])


def skipped(record, *rows_and_cases):
    """``record`` with the solves at the given (snapshot, case) indices
    marked skipped."""
    status = record.status.copy()
    for index in rows_and_cases:
        status[index] = al.SolverStatus.INFEASIBLE_SKIPPED
    return dataclasses.replace(record, status=status)


def test_report_rejects_a_snapshot_skipped_in_one_case_only(tables):
    cfg = d.with_updates(d.ScenarioConfig(), iterations=2)
    record = d.run_campaign(cfg, tables).record
    assert record.feasible.all()
    with pytest.raises(ValueError,
                       match="snapshot 1 must be skipped in both cases or in "
                             "neither"):
        sim.build_report(skipped(record, (1, 1)), cfg.num_d2d_pairs)


def test_report_rejects_snapshots_skipped_in_opposite_cases(tables):
    """Snapshot 0 skipped in OFDM only and snapshot 1 in FBMC only leave one
    sample in every series, so only a per-snapshot check sees the split."""
    cfg = d.with_updates(d.ScenarioConfig(), iterations=2)
    record = d.run_campaign(cfg, tables).record
    assert record.feasible.all()
    with pytest.raises(ValueError, match="snapshot 0 must be skipped in both "
                                         "cases or in neither"):
        sim.build_report(skipped(record, (0, 0), (1, 1)), cfg.num_d2d_pairs)


def test_campaign_determinism(tables):
    cfg = d.with_updates(d.ScenarioConfig(), iterations=4)
    a = d.run_campaign(cfg, tables)
    b = d.run_campaign(cfg, tables)
    assert_records_equal(a.record, b.record)
    assert a.summary == b.summary


def test_campaign_single_iteration(tables):
    cfg = d.with_updates(d.ScenarioConfig(), iterations=1)
    rep = d.run_campaign(cfg, tables)
    assert np.array_equal(rep.record.feasible.sum(axis=0) + rep.skipped,
                          [1, 1])


def test_campaign_all_infeasible_raises(tables):
    cfg = d.with_updates(d.ScenarioConfig(), iterations=3, cu_min_sinr=90.0)
    with pytest.raises(d.EmptyReportError):
        d.run_campaign(cfg, tables)


def test_campaign_parallel_matches_sequential(tables):
    # two blocks, so jobs=2 runs a real pool of two workers
    cfg = d.with_updates(d.ScenarioConfig(), iterations=sim.BLOCK_SIZE + 6)
    a = d.run_campaign(cfg, tables)
    b = d.run_campaign(cfg, tables, jobs=2)
    assert_records_equal(a.record, b.record)
    assert a.summary == b.summary


@pytest.mark.parametrize("iterations,workers", [(sim.BLOCK_SIZE + 1, 2),
                                                 (3, 1)])
def test_pool_starts_at_most_one_worker_per_block(tables, monkeypatch,
                                                   iterations, workers):
    """Under fork, a pool starts all ``max_workers`` processes at its first
    submit, so ``jobs`` beyond the number of blocks would only start idle
    processes, and a pool of one worker would only fork and pickle.  A fake
    pool records its worker count and maps in-process."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    cfg = d.with_updates(d.ScenarioConfig(), iterations=iterations)
    pooled = d.run_campaign(cfg, tables, jobs=64)
    assert started == ([workers] if workers > 1 else [])
    assert_records_equal(d.run_campaign(cfg, tables).record, pooled.record)


def test_blocks_independent_of_jobs_and_block_mates(tmp_path, tables):
    """17 snapshots make one full block and one snapshot alone.  The report
    is the same at jobs=0 and jobs=2, and every snapshot's results equal
    those of ``run_iteration`` on its own stream alone, so no snapshot's
    arithmetic, inter-D2D interference included, depends on its
    block-mates.  One pair alone sees no inter-D2D interference, so its
    actual rate is its predicted rate."""
    for num_pairs in (1, 5, 10, 13):
        cfg = d.with_updates(d.ScenarioConfig(),
                             iterations=sim.BLOCK_SIZE + 1,
                             num_d2d_pairs=num_pairs)
        seq = d.run_campaign(cfg, tables)
        pooled = d.run_campaign(cfg, tables, jobs=2)
        d.write_samples_csv(seq, tmp_path / "seq.csv")
        d.write_samples_csv(pooled, tmp_path / "pooled.csv")
        assert (tmp_path / "seq.csv").read_bytes() == \
            (tmp_path / "pooled.csv").read_bytes()
        assert_records_equal(seq.record, pooled.record)
        streams = np.random.SeedSequence(cfg.seed).spawn(cfg.iterations)
        for it, stream in enumerate(streams):
            alone = d.run_iteration(cfg, tables, [stream])
            assert_records_equal(rows(seq.record, [it]), alone)
        if num_pairs == 1:
            assert np.array_equal(seq.record.rate_actual,
                                  seq.record.rate_predicted)


def test_report_counts_max_iter_apart(tables, monkeypatch):
    """The record holds each solve's status, Newton steps and KKT residual,
    so a MAX_ITER solve is not mistaken for an OPTIMAL one.  With the Newton
    steps bounded at 5, this campaign (11 pairs, seed 951026653) ends some
    solves OPTIMAL and some MAX_ITER; the columns, in the order the solves
    run (block, then case, then snapshot), must match what a recorder on
    ``al.power_loading`` sees."""
    solves = []
    power_loading = al.power_loading

    def record(*args, **kwargs):
        solves.append(power_loading(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(al, "power_loading", record)
    monkeypatch.setattr(al, "MAX_NEWTON_STEPS", 5)
    cfg = d.with_updates(d.ScenarioConfig(), num_d2d_pairs=11,
                         seed=951026653, iterations=8)
    record = d.run_campaign(cfg, tables).record
    assert len(solves) == 2 * cfg.iterations
    assert in_solve_order(record.status) == [s.status for s in solves]
    assert in_solve_order(record.newton_steps) == \
        [s.iterations_used for s in solves]
    assert in_solve_order(record.kkt_residual) == \
        [s.kkt_residual for s in solves]
    assert al.SolverStatus.OPTIMAL in record.status
    assert al.SolverStatus.MAX_ITER in record.status


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


@pytest.mark.parametrize("layout", list(d.Layout))
def test_results_view_matches_record_and_samples_csv(tmp_path, tables,
                                                     layout):
    """``report.results`` lists the record's rows, snapshot by snapshot in
    ``Case`` order, and samples.csv holds those rows as the record's
    columns give them.  A 47 dB CU floor skips some of the 17 snapshots,
    so the feasible flags are not all alike."""
    cfg = d.with_updates(d.ScenarioConfig(), iterations=17, cu_min_sinr=47.0,
                         layout=layout)
    rep = d.run_campaign(cfg, tables)
    assert 0 < rep.skipped < cfg.iterations
    rec = rep.record
    expected = [(it, sim.Sample(
        case, rec.rate_predicted[it, k], rec.rate_actual[it, k],
        rec.feasible[it, k], rec.cluster_radius[it], rec.cluster_distance[it],
        cfg.num_d2d_pairs)) for it in range(cfg.iterations)
        for k, case in enumerate(sim.Case)]
    np.testing.assert_equal(rep.results, expected)

    d.write_samples_csv(rep, tmp_path / "samples.csv")
    lines = (tmp_path / "samples.csv").read_text().splitlines()
    assert lines[0] == ("iteration,case,rate_predicted,rate_actual,feasible,"
                        "cluster_radius,cluster_distance,num_pairs")
    assert lines[1:] == ["%d,%s,%.9g,%.9g,%d,%.9g,%.9g,%d"
                         % (it, r.case.value, *r[1:]) for it, r in expected]


def test_infeasible_iteration_marks_both_cases(tables):
    # a 47 dB floor skips most default snapshots but not all, so a
    # waveform-dependent skip would show as a split
    cfg = d.with_updates(d.ScenarioConfig(), cu_min_sinr=47.0)
    streams = np.random.SeedSequence(cfg.seed).spawn(100)
    record = d.run_iteration(cfg, tables, streams)
    flags = record.feasible
    # never split across cases
    assert np.array_equal(flags[:, 0], flags[:, 1])
    assert np.all(record.rate_actual[~flags] == 0.0)
    assert np.all(record.rate_predicted[~flags] == 0.0)
    # skipped block-mates, with their zero powers, leave every snapshot's
    # results as they are alone
    for it, stream in enumerate(streams):
        assert_records_equal(rows(record, [it]),
                             d.run_iteration(cfg, tables, [stream]))
    assert 0 < flags[:, 0].sum() < len(streams), flags[:, 0].sum()


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


@pytest.mark.parametrize("layout, cu_min_sinr", [
    *(pytest.param(layout, 10.0, id=str(layout)) for layout in d.Layout),
    *(pytest.param(layout, 47.0, id="%s-47dB" % layout) for layout in d.Layout)])
def test_campaign_solve_contract(tables, monkeypatch, layout, cu_min_sinr):
    """A campaign reaches the solver through the ``al.power_loading``
    attribute, once per snapshot and case, with the six arguments by
    position and one keyword, ``problem``, its slice of the block's
    problems.  Benchmark tracing wraps that attribute to see every solve and
    binds the six arguments by name, so a pipeline that bypasses it must
    fail here first.  The 20 snapshots make a block of 16 and one of 4, and
    the calls run block, then case, then snapshot: each call must carry the
    snapshot and case that a campaign of that snapshot alone gives.  Each
    call, replayed from its six arguments alone, must give the campaign's
    solve bit for bit.  At a CU floor of 10 dB no snapshot is skipped; at
    47 dB most are, so both branches of ``check_recorded_solve`` run."""
    calls = []
    power_loading = al.power_loading

    def record(*args, **kwargs):
        result = power_loading(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(al, "power_loading", record)
    cfg = d.with_updates(d.ScenarioConfig(), iterations=20, layout=layout,
                         cu_min_sinr=cu_min_sinr)
    for stream in np.random.SeedSequence(cfg.seed).spawn(cfg.iterations):
        sim.run_iteration(cfg, tables, [stream])
    alone, calls[:] = calls[:], []    # snapshot i, case c at 2 i + c
    d.run_campaign(cfg, tables)
    assert len(calls) == len(alone) == 2 * cfg.iterations
    order = in_solve_order(np.arange(len(alone)).reshape(-1, len(sim.Case)))
    names = list(inspect.signature(power_loading).parameters)
    assert names == ["assignment", "gains", "tables", "smap", "config",
                     "d2d_kind", "problem"]
    for k, (args, kwargs, result) in zip(order, calls):
        assert list(kwargs) == ["problem"] and len(args) == 6
        assignment, gains, tabs, smap, config, kind = args
        assert isinstance(assignment, al.Assignment)
        assert isinstance(gains, ch.ChannelGains)
        assert tabs is tables
        assert isinstance(smap, itf.SpectrumMap)
        assert config == cfg
        assert kind is list(sim.Case)[k % 2].waveform
        solo, solo_gains, _, solo_smap, _, _ = alone[k][0]
        assert np.array_equal(assignment.rb_of_pair, solo.rb_of_pair)
        assert np.array_equal(smap.rb_of_cu, solo_smap.rb_of_cu)
        for name, value in vars(gains).items():
            assert np.array_equal(value, getattr(solo_gains, name))
        assert isinstance(result, al.PowerLoadingResult)
        check_recorded_solve(args, result)
        replay = power_loading(*args)
        assert replay.status is result.status
        assert replay.iterations_used == result.iterations_used
        assert replay.kkt_residual == result.kkt_residual
        for got, want in ((replay.powers.p_d2d, result.powers.p_d2d),
                          (replay.dual_cu, result.dual_cu),
                          (replay.dual_cap, result.dual_cap)):
            assert got.tobytes() == want.tobytes()
    statuses = [r.status for _, _, r in calls]
    assert al.SolverStatus.OPTIMAL in statuses
    assert ((al.SolverStatus.INFEASIBLE_SKIPPED in statuses)
            is (cu_min_sinr == 47.0))
