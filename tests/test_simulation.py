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
        assert sum(r.feasible for _, r in rep.results
                   if r.case is c) == 5 - rep.skipped
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
    for c in sim.Case:
        for variant, field in (("actual", "rate_actual"),
                               ("predicted", "rate_predicted")):
            series = np.sort([getattr(r, field) for _, r in rep.results
                              if r.case is c and r.feasible])
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


@pytest.mark.parametrize("layout", list(d.Layout))
def test_equal_tables_make_the_cases_identical(tables, layout):
    """With one table in all four slots, the two waveform cases see the same
    numbers, so every result of a campaign matches across the cases bit for
    bit: rates, feasibility, solver status, Newton steps and KKT
    residual."""
    one = tables[(d.WaveformType.OFDM, d.WaveformType.OFDM)]
    same = {key: one for key in tables}
    cfg = d.with_updates(d.ScenarioConfig(), iterations=40, layout=layout)
    rep = d.run_campaign(cfg, same)
    fields = ("rate_predicted", "rate_actual", "feasible", "status",
              "newton_steps", "kkt_residual")
    by_case = {c: [tuple(getattr(r, f) for f in fields)
                   for _, r in rep.results if r.case is c] for c in sim.Case}
    assert len(by_case[sim.Case.D2D_OFDM]) == cfg.iterations
    assert by_case[sim.Case.D2D_OFDM] == by_case[sim.Case.D2D_FBMC]
    assert any(feasible for _, _, feasible, *_ in by_case[sim.Case.D2D_OFDM])


# the config fields that a common dB shift moves together
POWERS = ("noise_per_subcarrier", "max_tx_power", "cu_tx_power")
OFDM, FBMC = d.WaveformType.OFDM, d.WaveformType.FBMC_OQAM
# the case that reads each (interferer, victim) table
READERS = {(OFDM, OFDM): sim.Case.D2D_OFDM, (OFDM, FBMC): sim.Case.D2D_FBMC,
           (FBMC, OFDM): sim.Case.D2D_FBMC, (FBMC, FBMC): sim.Case.D2D_FBMC}


def small_campaign(tables, layout, **updates):
    """Every (iteration, result) pair of a 40-snapshot campaign of 4 pairs
    on 6 RBs."""
    cfg = d.with_updates(d.ScenarioConfig(), num_rbs=6, num_d2d_pairs=4,
                         iterations=40, layout=layout, **updates)
    return d.run_campaign(cfg, tables).results


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
        flags = [r.feasible for _, r in base]
        assert flags.count(False) == 2 * skips
        rates = [(r.rate_actual, r.rate_predicted) for _, r in base]
        for shift in (10.0, -17.0):
            moved = {name: getattr(base_cfg, name) + shift for name in POWERS}
            results = small_campaign(tables, layout, cu_min_sinr=cu_min_sinr,
                                     **moved)
            assert [r.feasible for _, r in results] == flags
            np.testing.assert_allclose(
                [(r.rate_actual, r.rate_predicted) for _, r in results],
                rates, rtol=rtol, atol=0)


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
    def outcome(r):
        return (r.rate_actual, r.rate_predicted, r.status, r.newton_steps,
                r.kkt_residual)

    base = small_campaign(tables, layout)
    for key, reader in READERS.items():
        results = small_campaign(zeroed(tables, key), layout)
        changed = [r.case for (_, r), (_, b) in zip(results, base)
                   if outcome(r) != outcome(b)]
        assert changed == [reader] * 40
        if key[0] is key[1]:
            assert all(r.rate_actual == r.rate_predicted
                       for _, r in results if r.case is reader)


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

    def outcomes(tabs, config=cfg):
        return [(r.case, (r.rate_actual, r.rate_predicted, r.feasible,
                          r.status, r.newton_steps, r.kkt_residual))
                for _, r in d.run_campaign(config, tabs).results]

    base = outcomes(tables)
    for shift in (10.0, -17.0):
        moved = outcomes(tables, d.with_updates(
            cfg, **{name: getattr(cfg, name) + shift for name in POWERS}))
        assert [o[2] for _, o in moved] == [o[2] for _, o in base]
        np.testing.assert_allclose([o[:2] for _, o in moved],
                                   [o[:2] for _, o in base], rtol=1e-12, atol=0)

    same = outcomes({key: tables[(OFDM, OFDM)] for key in tables})
    assert [o for c, o in same if c is sim.Case.D2D_OFDM] \
        == [o for c, o in same if c is sim.Case.D2D_FBMC]

    for key, reader in READERS.items():
        results = outcomes(zeroed(tables, key))
        for (case, o), (_, b) in zip(results, base):
            if case is not reader:
                assert o == b
            elif key[0] is OFDM and b[2]:
                assert o != b
            if case is reader and key[0] is key[1]:
                assert o[0] == o[1]


def skipped(result):
    return dataclasses.replace(result,
                               status=al.SolverStatus.INFEASIBLE_SKIPPED)


def test_report_rejects_a_snapshot_skipped_in_one_case_only(tables):
    cfg = d.with_updates(d.ScenarioConfig(), iterations=2)
    rep = d.run_campaign(cfg, tables)
    [(it, first), *rest] = rep.results
    assert first.feasible
    one_case_only = [(it, skipped(first))] + rest
    with pytest.raises(ValueError, match="both cases or in neither"):
        sim.build_report(one_case_only, cfg.iterations)


def test_report_rejects_snapshots_skipped_in_opposite_cases(tables):
    """Snapshot 0 skipped in OFDM only and snapshot 1 in FBMC only leave one
    sample in every series, so only a per-snapshot check sees the split."""
    cfg = d.with_updates(d.ScenarioConfig(), iterations=2)
    rep = d.run_campaign(cfg, tables)
    (i0, ofdm0), (_, fbmc0), (i1, ofdm1), (_, fbmc1) = rep.results
    assert all(r.feasible for _, r in rep.results)
    assert ofdm0.case is ofdm1.case is sim.Case.D2D_OFDM
    opposite = [(i0, skipped(ofdm0)), (i0, fbmc0),
                (i1, ofdm1), (i1, skipped(fbmc1))]
    with pytest.raises(ValueError, match="both cases or in neither"):
        sim.build_report(opposite, cfg.iterations)


def test_report_needs_one_result_per_case_for_every_iteration(tables):
    """A list that drops a case's result, repeats one in place of another,
    or carries one beyond the last iteration fails, naming the iteration
    and the case; the same results in any order give the same report."""
    cfg = d.with_updates(d.ScenarioConfig(), iterations=4)
    rep = d.run_campaign(cfg, tables)
    results = rep.results
    assert [(it, r.case) for it, r in results] == [
        (it, case) for it in range(4) for case in sim.Case]
    missing = results[:-1]
    repeated = results[:6] + [results[4]] + results[7:]
    beyond = results + [(4, results[-1][1])]
    for bad, match in ((missing, "iteration 3 has 0 D2D_FBMC"),
                       (repeated, "iteration 2 has 2 D2D_OFDM"),
                       (beyond, "iteration 4 has 1 D2D_FBMC")):
        with pytest.raises(ValueError, match=match):
            sim.build_report(bad, cfg.iterations)
    shuffled = sim.build_report(results[::-1], cfg.iterations)
    assert shuffled.summary == rep.summary
    assert shuffled.skipped == rep.skipped


def test_campaign_determinism(tables):
    cfg = d.with_updates(d.ScenarioConfig(), iterations=4)
    a = d.run_campaign(cfg, tables)
    b = d.run_campaign(cfg, tables)
    assert a.results == b.results
    assert a.summary == b.summary


def test_campaign_single_iteration(tables):
    cfg = d.with_updates(d.ScenarioConfig(), iterations=1)
    rep = d.run_campaign(cfg, tables)
    for c in sim.Case:
        assert sum(r.feasible for _, r in rep.results
                   if r.case is c) + rep.skipped == 1


def test_campaign_all_infeasible_raises(tables):
    cfg = d.with_updates(d.ScenarioConfig(), iterations=3, cu_min_sinr=90.0)
    with pytest.raises(d.EmptyReportError):
        d.run_campaign(cfg, tables)


def test_campaign_parallel_matches_sequential(tables):
    cfg = d.with_updates(d.ScenarioConfig(), iterations=6)
    a = d.run_campaign(cfg, tables)
    b = d.run_campaign(cfg, tables, jobs=2)
    assert a.results == b.results
    assert a.summary == b.summary


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
        assert seq.results == pooled.results
        streams = np.random.SeedSequence(cfg.seed).spawn(cfg.iterations)
        for it, stream in enumerate(streams):
            [alone] = d.run_iteration(cfg, tables, [stream])
            assert [r for i, r in seq.results if i == it] == alone
        if num_pairs == 1:
            assert all(r.rate_actual == r.rate_predicted
                       for _, r in seq.results)


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
