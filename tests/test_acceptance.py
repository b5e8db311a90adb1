"""End-to-end acceptance gate.

Each test covers one numbered release criterion, prints a single PASS/FAIL
line with the measured values, and asserts the criterion with its time
budget.  The heavy Monte Carlo runs reuse session fixtures and module-scoped
campaign reports so the whole gate stays inside the stated budgets.
"""
import itertools
import time

import numpy as np
import pytest
from scipy import stats

import d2d_underlay as d
from d2d_underlay import allocation as al
from d2d_underlay import interference as itf
from d2d_underlay import simulation as sim
from d2d_underlay import waveform as wf

from test_interference import (brute_cost, brute_i_cu, brute_i_d2d,
                               brute_omega)
from test_waveform import receiver_filtered_psd

OFDM = wf.WaveformType.OFDM
FBMC = wf.WaveformType.FBMC_OQAM


@pytest.fixture
def report_line(capsys):
    def emit(number, passed, detail):
        with capsys.disabled():
            print("%s criterion %d: %s"
                  % ("PASS" if passed else "FAIL", number, detail))
        assert passed, "criterion %d: %s" % (number, detail)
    return emit


def _median_gap(report, case):
    p = report.summary[(case, "predicted", "median")]
    a = report.summary[(case, "actual", "median")]
    return (p - a) / p


def _audit(*records):
    """Whether every solve of the records is OPTIMAL or skipped, with each
    OPTIMAL one under the KKT tolerance and the Newton step bound; and a
    detail naming the count, the worst KKT residual and the most steps."""
    status, kkt, steps = (
        np.concatenate([getattr(r, name).ravel() for r in records])
        for name in ("status", "kkt_residual", "newton_steps"))
    optimal = status == al.SolverStatus.OPTIMAL
    skipped = status == al.SolverStatus.INFEASIBLE_SKIPPED
    worst = kkt[optimal].max(initial=0.0)
    most = steps[optimal].max(initial=0)
    passed = (bool(np.all(optimal | skipped)) and worst < al.KKT_TOLERANCE
              and most <= al.MAX_NEWTON_STEPS)
    return passed, (
        "%d solves: %d OPTIMAL, %d skipped, %d other (need 0), worst KKT "
        "residual %.1e (need < %.0e), at most %d Newton steps (need <= %d)"
        % (status.size, optimal.sum(), skipped.sum(),
           status.size - optimal.sum() - skipped.sum(), worst,
           al.KKT_TOLERANCE, most, al.MAX_NEWTON_STEPS))


@pytest.fixture(scope="module")
def clustered_report(tables):
    return d.run_campaign(d.ScenarioConfig(), tables, jobs=2)


# ---------------------------------------------------------------------------

def test_criterion_1_assignment_matches_exhaustive_search(report_line):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    perms = np.array(list(itertools.permutations(range(8), 6)))
    rows = np.arange(6)
    # U(0, 1) costs, and the same costs at 1e-12 W, the scale of campaign
    # costs
    scales = (1.0, 1e-12)
    mismatches = dict.fromkeys(scales, 0)
    for _ in range(100):
        unit = rng.uniform(0.0, 1.0, size=(6, 8))
        for scale in scales:
            cost = unit * scale
            ours = cost[rows, al.hungarian(cost).rb_of_pair].sum()
            best = cost[rows, perms].sum(axis=1).min()
            if ours != best:
                mismatches[scale] += 1
    elapsed = time.perf_counter() - t0
    report_line(1, not any(mismatches.values()) and elapsed < 1.0,
                "100 random 6x8 assignments, exhaustive-search mismatches "
                "%d at x1 and %d at x1e-12 W, %.2f s (budget 1 s)"
                % (mismatches[1.0], mismatches[1e-12], elapsed))


def test_criterion_2_power_loading_kkt_and_grid_oracle(tables, report_line):
    t0 = time.perf_counter()
    cfg = d.with_updates(d.ScenarioConfig(), num_rbs=5, num_d2d_pairs=3)
    gamma_min = 10.0 ** (cfg.cu_min_sinr / 10.0)
    worst_violation = 0.0
    worst_slack = 0.0
    optimal = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        placement = d.sample_placement(cfg, rng)
        gains = d.gains_from_placement(placement, cfg, rng)
        smap = d.random_cu_map(cfg, rng)
        zero = itf.PowerAllocation(p_d2d=np.zeros((3, 12)),
                                   p_cu=d.uniform_cu_powers(cfg))
        kind = FBMC if seed % 2 else OFDM
        a = al.hungarian(itf.cu_to_d2d_cost_matrix(
            gains, zero, tables[(OFDM, kind)], smap))
        res = al.power_loading(a, gains, tables, smap, cfg, kind)
        if res.status is not al.SolverStatus.OPTIMAL:
            continue
        optimal += 1
        smap_a = smap.with_assignment(a.rb_of_pair)
        sinr = itf.cu_sinr_all(gains, res.powers, tables, smap_a,
                               cfg.noise_per_subcarrier_w, kind)
        worst_violation = max(worst_violation,
                              float(((gamma_min - sinr) / gamma_min).max()))
        worst_slack = max(worst_slack, res.kkt_residual)

    # two pairs with one subcarrier each: refine a dense feasible-box grid
    cfg2 = d.with_updates(d.ScenarioConfig(), num_rbs=2, num_d2d_pairs=2,
                          subcarriers_per_rb=1,
                          cu_min_sinr=25.0)
    rng = np.random.default_rng(8)
    placement = d.sample_placement(cfg2, rng)
    gains = d.gains_from_placement(placement, cfg2, rng)
    smap = d.random_cu_map(cfg2, rng)
    zero = itf.PowerAllocation(p_d2d=np.zeros((2, 1)),
                               p_cu=d.uniform_cu_powers(cfg2))
    a = al.hungarian(itf.cu_to_d2d_cost_matrix(gains, zero,
                                               tables[(OFDM, FBMC)], smap))
    res = al.power_loading(a, gains, tables, smap, cfg2, FBMC)
    smap_a = smap.with_assignment(a.rb_of_pair)
    c, t = al.cu_constraint_coefficients(gains, tables, smap_a, zero.p_cu,
                                         cfg2, FBMC)
    i_cu = itf.i_cu_matrix(gains, zero, tables[(OFDM, FBMC)], smap_a)
    g = (gains.h_self[:, None] / (cfg2.noise_per_subcarrier_w + i_cu))[:, 0]
    ub = np.array([min(cfg2.max_tx_power_w, float((t / c[:, j, 0]).min()))
                   for j in range(2)])
    lo, hi = np.zeros(2), ub.copy()
    best = -np.inf
    for _ in range(3):                    # successive 201-point refinements
        gx = np.linspace(lo[0], hi[0], 201)
        gy = np.linspace(lo[1], hi[1], 201)
        x, y = np.meshgrid(gx, gy, indexing="ij")
        p = np.stack([x, y], axis=-1)
        feasible = np.ones(x.shape, dtype=bool)
        for i in range(2):
            feasible &= (p * c[i, :, 0]).sum(axis=-1) <= t[i]
        vals = np.where(feasible, np.log1p(g * p).sum(axis=-1), -np.inf)
        best = max(best, float(vals.max()))
        ix, iy = np.unravel_index(int(vals.argmax()), vals.shape)
        step = (hi - lo) / 200.0
        centre = np.array([gx[ix], gy[iy]])
        lo = np.maximum(centre - 2 * step, 0.0)
        hi = np.minimum(centre + 2 * step, ub)
    ours = float(np.log1p(g * res.powers.p_d2d[:, 0]).sum())
    grid_gap = abs(ours - best) / abs(best)
    elapsed = time.perf_counter() - t0
    passed = (optimal >= 45 and worst_violation < 1e-6 and worst_slack < 1e-6
              and res.status is al.SolverStatus.OPTIMAL and grid_gap < 1e-4
              and elapsed < 10.0)
    report_line(2, passed,
                "%d/50 instances solved, worst SINR-floor violation %.1e, "
                "worst KKT residual %.1e, toy objective within %.1e "
                "of grid oracle, %.1f s (budget 10 s)"
                % (optimal, worst_violation, worst_slack, grid_gap, elapsed))


def test_criterion_3_table_localization(tables, tables_psd, filt512,
                                        report_line):
    """Out-of-band means beyond the adjacent subcarrier: the overlap-4
    prototype spans +/-1 subcarrier spacing by design, so an asynchronous
    victim sees ~9% of the power in each neighbour for either waveform.
    The receiver table is checked against the interferer's PSD filtered by
    the victim's analysis window; plain band integration ignores that
    filter and is reported only."""
    t0 = time.perf_counter()
    ff = tables[(FBMC, FBMC)]
    oo = tables[(OFDM, OFDM)]
    of = tables[(OFDM, FBMC)]
    span = ff.half_span

    def leak(table, l):
        return table.coeffs[abs(l)] if abs(l) <= table.half_span else 0.0

    def out_of_band(table):
        return sum(leak(table, l) for l in range(-span, span + 1)
                   if abs(l) >= 2)

    leak_ratio = out_of_band(ff) / out_of_band(oo)
    cross_ratio = leak(of, 1) / leak(oo, 1)
    oracle = {l: receiver_filtered_psd(wf.FBMC, wf.FBMC, filt512, l)
              for l in (0, 1, -1)}
    oracle_dev = max(abs(oracle[l] - leak(ff, l)) / leak(ff, l)
                     for l in (0, 1, -1))
    ff_psd = tables_psd[(FBMC, FBMC)]
    psd_dev = max(abs(leak(ff_psd, l) - leak(ff, l)) / leak(ff, l)
                  for l in (0, 1, -1))
    elapsed = time.perf_counter() - t0
    passed = (leak_ratio < 0.01 and 0.3 <= cross_ratio <= 1.0
              and oracle_dev < 0.10 and elapsed < 60.0)
    report_line(3, passed,
                "leakage ratio beyond the adjacent subcarrier (|l|>=2) "
                "filter-bank/plain %.3g (need < 0.01), adjacent cross ratio "
                "%.3f (need 0.3..1.0), worst deviation from the "
                "receiver-filtered PSD at |l|<=1 %.2f%% (need < 10%%), "
                "band-integrated PSD %.1f%% (reported only), %.1f s "
                "(budget 60 s)"
                % (leak_ratio, cross_ratio, 100 * oracle_dev, 100 * psd_dev,
                   elapsed))


def test_criterion_4_clustered_gap_contrast(clustered_report, report_line):
    t0 = time.perf_counter()
    rep = clustered_report
    gap_fbmc = _median_gap(rep, sim.Case.D2D_FBMC)
    gap_ofdm = _median_gap(rep, sim.Case.D2D_OFDM)
    audited, audit = _audit(rep.record)
    elapsed = time.perf_counter() - t0
    passed = (gap_fbmc < 0.02 and gap_ofdm >= 5 * gap_fbmc and audited
              and elapsed < 300.0)
    report_line(4, passed,
                "clustered 10 pairs, 2000 iterations: filter-bank median "
                "predicted-actual gap %.2f%% (need < 2%%), plain-OFDM gap "
                "%.2f%% = %.1fx (need >= 5x); %s; %.1f s (budget 300 s)"
                % (100 * gap_fbmc, 100 * gap_ofdm, gap_ofdm / gap_fbmc,
                   audit, elapsed))


def test_criterion_5_layout_contrast(tables, clustered_report, report_line):
    t0 = time.perf_counter()
    cfg = d.with_updates(d.ScenarioConfig(), layout=d.Layout.NON_CLUSTERED)
    rep_n = d.run_campaign(cfg, tables, jobs=2)
    gap_non = _median_gap(rep_n, sim.Case.D2D_OFDM)
    gap_clu = _median_gap(clustered_report, sim.Case.D2D_OFDM)
    audited, audit = _audit(rep_n.record)
    elapsed = time.perf_counter() - t0
    passed = gap_non < gap_clu and audited and elapsed < 600.0
    report_line(5, passed,
                "plain-OFDM median gap %.2f%% non-clustered vs %.2f%% "
                "clustered (need strictly smaller); non-clustered %s; "
                "%.1f s (budget 600 s)"
                % (100 * gap_non, 100 * gap_clu, audit, elapsed))


def test_criterion_6_trend_suite(tables, report_line):
    t0 = time.perf_counter()
    cfg = d.with_updates(d.ScenarioConfig(), iterations=1000)

    def means(points, case):
        return np.array([rep.summary[(case, "actual", "mean")]
                         for _, rep in points])

    def trend(series, values, expected_sign):
        rho, p = stats.spearmanr(values, series)
        return np.sign(rho) == expected_sign and p < 0.05, rho, p

    checks = []
    records = []

    values = [5, 7, 9, 11, 13]
    pts = d.sweep(cfg, sim.SweepParameter.NUM_PAIRS, values, tables, jobs=2)
    records += [rep.record for _, rep in pts]
    ofdm, fbmc = means(pts, sim.Case.D2D_OFDM), means(pts, sim.Case.D2D_FBMC)
    checks.append(("rate down in num_pairs (plain)",) + trend(ofdm, values, -1))
    checks.append(("rate down in num_pairs (filter-bank)",)
                  + trend(fbmc, values, -1))
    checks.append(("waveform gap up in num_pairs",)
                  + trend(fbmc - ofdm, values, +1))

    values = [0.0, 35.0, 70.0, 105.0, 140.0]
    pts = d.sweep(cfg, sim.SweepParameter.CLUSTER_DISTANCE, values, tables,
                  jobs=2)
    records += [rep.record for _, rep in pts]
    for case, name in ((sim.Case.D2D_OFDM, "plain"),
                       (sim.Case.D2D_FBMC, "filter-bank")):
        checks.append(("rate up in cluster distance (%s)" % name,)
                      + trend(means(pts, case), values, +1))

    values = [40.0, 55.0, 70.0, 85.0, 100.0]
    pts = d.sweep(cfg, sim.SweepParameter.CLUSTER_RADIUS, values, tables,
                  jobs=2)
    records += [rep.record for _, rep in pts]
    advantage = (means(pts, sim.Case.D2D_FBMC)
                 - means(pts, sim.Case.D2D_OFDM))
    checks.append(("filter-bank advantage down in cluster radius",)
                  + trend(advantage, values, -1))

    audited, audit = _audit(*records)
    elapsed = time.perf_counter() - t0
    failed = [name for name, ok, _, _ in checks if not ok]
    detail = "; ".join("%s rho=%+.2f p=%.3f" % (name, rho, p)
                       for name, _, rho, p in checks)
    passed = not failed and audited and elapsed < 1800.0
    report_line(6, passed, "%s; %s; %.0f s (budget 1800 s)"
                % (detail, audit, elapsed))


def test_criterion_7_byte_identical_reruns(tables, tmp_path, report_line):
    t0 = time.perf_counter()
    cfg = d.with_updates(d.ScenarioConfig(), iterations=25)
    identical = True
    names = ("samples.csv", "cdf.csv")
    for run in ("a", "b"):
        out = tmp_path / run
        out.mkdir()
        rep = d.run_campaign(cfg, tables)
        d.write_samples_csv(rep, out / "samples.csv")
        d.write_cdf_csv(rep, out / "cdf.csv")
    for name in names:
        identical &= ((tmp_path / "a" / name).read_bytes()
                      == (tmp_path / "b" / name).read_bytes())
    elapsed = time.perf_counter() - t0
    report_line(7, identical,
                "two same-seed 25-iteration campaigns, CSV outputs %s, %.1f s"
                % ("byte-identical" if identical else "differ", elapsed))


def test_criterion_8_sinr_oracle_equivalence(tables, report_line):
    t0 = time.perf_counter()
    worst = 0.0
    for kind in (OFDM, FBMC):
        for num_rbs in (2, 3):
            cfg = d.with_updates(d.ScenarioConfig(), num_rbs=num_rbs,
                                 num_d2d_pairs=2)
            rng = np.random.default_rng(100 + num_rbs)
            placement = d.sample_placement(cfg, rng)
            gains = d.gains_from_placement(placement, cfg, rng)
            smap = d.random_cu_map(cfg, rng)
            smap = smap.with_assignment(
                rng.permutation(num_rbs)[:cfg.num_d2d_pairs])
            p_d2d = rng.uniform(0, cfg.max_tx_power_w / 12, size=(2, 12))
            powers = itf.PowerAllocation(p_d2d=p_d2d,
                                         p_cu=d.uniform_cu_powers(cfg))
            noise = cfg.noise_per_subcarrier_w
            t_cu, t_dd = tables[(OFDM, kind)], tables[(kind, kind)]
            t_bs = tables[(kind, OFDM)]

            i_cu = itf.i_cu_matrix(gains, powers, t_cu, smap)
            i_dd = itf.i_d2d_matrix(gains, powers, t_dd, smap)
            actual, predicted = itf.d2d_sinr_matrices(gains, powers, tables,
                                                      smap, noise, kind)
            cost = itf.cu_to_d2d_cost_matrix(gains, powers, t_cu, smap)
            cu_sinr = itf.cu_sinr_all(gains, powers, tables, smap, noise, kind)

            def rel(got, ref):
                return abs(got - ref) / abs(ref) if ref else abs(got)

            for j in range(2):
                for m in range(12):
                    ref_cu = brute_i_cu(j, m, gains, powers, t_cu, smap)
                    ref_dd = brute_i_d2d(j, m, gains, powers, t_dd, smap)
                    num = powers.p_d2d[j, m] * gains.h_self[j]
                    worst = max(worst, rel(i_cu[j, m], ref_cu),
                                rel(i_dd[j, m], ref_dd),
                                rel(actual[j, m],
                                    num / (noise + ref_cu + ref_dd)),
                                rel(predicted[j, m], num / (noise + ref_cu)))
                for r in range(num_rbs):
                    worst = max(worst, rel(cost[j, r],
                                           brute_cost(j, r, gains, powers,
                                                      t_cu, smap)))
            for i in range(num_rbs):
                denom = noise * 12 + sum(
                    brute_omega(j, i, gains, powers, t_bs, smap)
                    for j in range(2))
                worst = max(worst, rel(cu_sinr[i],
                                       powers.p_cu[i] * gains.h_cu_bs[i]
                                       / denom))
    elapsed = time.perf_counter() - t0
    report_line(8, worst < 1e-12,
                "all SINR and interference expressions vs brute-force triple "
                "sums on <= 3 RB instances: worst relative error %.1e (need "
                "< 1e-12), %.1f s" % (worst, elapsed))
