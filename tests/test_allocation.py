import itertools

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import d2d_underlay as d
from d2d_underlay import allocation as al
from d2d_underlay import channel as ch
from d2d_underlay import interference as itf
from d2d_underlay import waveform as wf

OFDM = wf.WaveformType.OFDM
FBMC = wf.WaveformType.FBMC_OQAM


def test_hungarian_trivial_cases():
    a = al.hungarian(np.array([[1.0]]))
    assert list(a.rb_of_pair) == [0]
    cost = np.array([[1.0, 2.0], [2.0, 1.0]])
    a = al.hungarian(cost)
    assert list(a.rb_of_pair) == [0, 1]
    assert cost[[0, 1], a.rb_of_pair].sum() == 2.0


def test_hungarian_matches_exhaustive_search(rng):
    # every injective assignment of 6 pairs to 8 RBs, gathered at once
    perms = np.array(list(itertools.permutations(range(8), 6)))
    rows = np.arange(6)
    # 1e-12 is the physical scale of campaign costs, in W
    for _ in range(100):
        cost = rng.uniform(0, 1, size=(6, 8))
        best = cost[rows, perms].sum(axis=1).min()
        for scale in (1.0, 1e-12):
            scaled = cost * scale
            a = al.hungarian(scaled)
            assert scaled[rows, a.rb_of_pair].sum() == pytest.approx(
                best * scale, rel=1e-12, abs=0)


def test_hungarian_rejects_overload():
    with pytest.raises(al.InfeasibleAssignmentError):
        al.hungarian(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        al.hungarian(np.array([[np.inf, 1.0]]))
    for cost in (np.zeros(3), np.zeros((2, 3, 4))):
        with pytest.raises(ValueError, match="cost must be a matrix"):
            al.hungarian(cost)


def test_hungarian_scale_invariance(rng):
    cost = rng.uniform(0, 1, size=(5, 7))
    a = al.hungarian(cost)
    b = al.hungarian(cost * 137.0)
    assert np.array_equal(a.rb_of_pair, b.rb_of_pair)


def test_hungarian_tie_break_prefers_low_rb():
    # every assignment of the all-equal matrix is optimal
    a = al.hungarian(np.ones((2, 4)))
    assert set(a.rb_of_pair) == {0, 1}


def small_instance(tables, seed=3, num_rbs=5, num_pairs=3, **kw):
    cfg = d.with_updates(d.ScenarioConfig(), num_rbs=num_rbs,
                         num_d2d_pairs=num_pairs, **kw)
    rng = np.random.default_rng(seed)
    placement = d.sample_placement(cfg, rng)
    gains = d.gains_from_placement(placement, cfg, rng)
    smap = d.random_cu_map(cfg, rng)
    zero = itf.PowerAllocation(
        p_d2d=np.zeros((num_pairs, cfg.subcarriers_per_rb)),
        p_cu=d.uniform_cu_powers(cfg))
    return cfg, gains, smap, zero


def test_constraint_coefficients_limits(tables):
    cfg, gains, smap, zero = small_instance(tables)
    smap = smap.with_assignment(np.array([0, 2, 4]))
    c, t = al.cu_constraint_coefficients(gains, tables, smap, zero.p_cu,
                                         d.with_updates(cfg, cu_min_sinr=-300.0),
                                         FBMC)
    assert np.all(c >= 0)
    assert np.all(t > 1e3)      # vanishing SINR floor leaves huge headroom
    # headroom is exactly zero when the clean CU SINR equals the floor
    clean = itf.cu_sinr_all(gains, zero, tables, smap,
                            cfg.noise_per_subcarrier_w, FBMC)
    floor_db = 10 * np.log10(clean[0])
    _, t0 = al.cu_constraint_coefficients(
        gains, tables, smap, zero.p_cu,
        d.with_updates(cfg, cu_min_sinr=float(floor_db)), FBMC)
    assert t0[0] == pytest.approx(0.0, abs=1e-25)


def test_constraint_boundary_matches_cu_sinr(tables):
    """Loading powers exactly onto the constraint boundary drives the CU
    SINR exactly to its floor."""
    cfg, gains, smap, zero = small_instance(tables, num_rbs=1, num_pairs=1)
    smap = smap.with_assignment(np.array([0]))
    c, t = al.cu_constraint_coefficients(gains, tables, smap, zero.p_cu,
                                         cfg, FBMC)
    assert np.all(t > 0)
    # uniform powers scaled to consume the CU 0 headroom exactly
    ones = np.ones((1, cfg.subcarriers_per_rb))
    scale = t[0] / float((c[0] * ones).sum())
    powers = itf.PowerAllocation(p_d2d=ones * scale, p_cu=zero.p_cu)
    sinr = itf.cu_sinr_all(gains, powers, tables, smap,
                           cfg.noise_per_subcarrier_w, FBMC)
    gamma_min = 10 ** (cfg.cu_min_sinr / 10)
    assert sinr[0] == pytest.approx(gamma_min, rel=1e-9)


def test_power_loading_water_filling_limit(tables):
    """With the CU constraints released, the solution is the classic
    single-cap water-filling over the pair's subcarriers."""
    cfg, gains, smap, zero = small_instance(tables, num_pairs=1,
                                            cu_min_sinr=-300.0)
    cost = itf.cu_to_d2d_cost_matrix(gains, zero, tables[(OFDM, FBMC)], smap)
    a = al.hungarian(cost)
    res = al.power_loading(a, gains, tables, smap, cfg, FBMC)
    assert res.status is al.SolverStatus.OPTIMAL

    smap_a = smap.with_assignment(a.rb_of_pair)
    i_cu = itf.i_cu_matrix(gains, zero, tables[(OFDM, FBMC)], smap_a)
    inv_g = (cfg.noise_per_subcarrier_w + i_cu[0]) / gains.h_self[0]
    lo, hi = 0.0, inv_g.max() + cfg.max_tx_power_w
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.clip(mid - inv_g, 0, None).sum() > cfg.max_tx_power_w:
            hi = mid
        else:
            lo = mid
    analytic = np.clip(lo - inv_g, 0, None)
    assert np.max(np.abs(res.powers.p_d2d[0] - analytic)) \
        < 1e-8 * cfg.max_tx_power_w


def test_power_loading_symmetric_instance_uniform(tables):
    """Equal gains and a flat leakage profile admit only the uniform split."""
    cfg = d.with_updates(d.ScenarioConfig(), num_rbs=1, num_d2d_pairs=1,
                         cu_min_sinr=-300.0)
    S = cfg.subcarriers_per_rb
    gains = ch.ChannelGains(
        h_cu_bs=np.array([1e-6]), h_d2d_bs=np.array([1e-9]),
        h_cu_d2d=np.array([[1e-12]]), h_d2d_d2d=np.array([[1e-5]]))
    # flat table: every spectral distance leaks the same fraction
    flat = wf.InterferenceTable(
        interferer=wf.OFDM, victim=wf.OFDM,
        coeffs=np.full(S + 1, 1.0 / (2 * S + 1)), method=wf.PSD).validate()
    flat_tables = {k: flat for k in tables}
    smap = itf.SpectrumMap(rb_of_cu=np.array([0]), num_rbs=1,
                           subcarriers_per_rb=S).validate()
    res = al.power_loading(al.Assignment(np.array([0])), gains, flat_tables,
                           smap, cfg, OFDM)
    assert res.status is al.SolverStatus.OPTIMAL
    total = res.powers.p_d2d.sum()
    assert total == pytest.approx(cfg.max_tx_power_w, rel=1e-6)  # cap binds
    assert np.allclose(res.powers.p_d2d, cfg.max_tx_power_w / S, rtol=1e-6)


def test_power_loading_grid_oracle(tables):
    """Two pairs, one subcarrier each: dense grid search over the box."""
    cfg = d.with_updates(d.ScenarioConfig(), num_rbs=2, num_d2d_pairs=2,
                         subcarriers_per_rb=1,
                         cu_min_sinr=25.0)
    rng = np.random.default_rng(8)
    placement = d.sample_placement(cfg, rng)
    gains = d.gains_from_placement(placement, cfg, rng)
    smap = d.random_cu_map(cfg, rng)
    zero = itf.PowerAllocation(p_d2d=np.zeros((2, 1)),
                               p_cu=d.uniform_cu_powers(cfg))
    a = al.hungarian(itf.cu_to_d2d_cost_matrix(gains, zero,
                                               tables[(OFDM, FBMC)], smap))
    res = al.power_loading(a, gains, tables, smap, cfg, FBMC)
    assert res.status is al.SolverStatus.OPTIMAL

    smap_a = smap.with_assignment(a.rb_of_pair)
    c, t = al.cu_constraint_coefficients(gains, tables, smap_a, zero.p_cu,
                                         cfg, FBMC)
    i_cu = itf.i_cu_matrix(gains, zero, tables[(OFDM, FBMC)], smap_a)
    g = gains.h_self[:, None] / (cfg.noise_per_subcarrier_w + i_cu)

    def objective(p):
        return np.log1p(g * p).sum()

    # grid each pair's feasible range [0, min(P_max, headroom)] at 1%
    pmax = cfg.max_tx_power_w
    ub = [min(pmax, float((t / c[:, j, 0]).min())) for j in range(2)]
    gx = np.linspace(0, ub[0], 101)
    gy = np.linspace(0, ub[1], 101)
    x, y = np.meshgrid(gx, gy, indexing="ij")
    p = np.stack([x, y], axis=-1)           # (101, 101, pairs)
    feasible = np.ones(x.shape, dtype=bool)
    for i in range(2):
        feasible &= (p * c[i, :, 0]).sum(axis=-1) <= t[i] * (1 + 1e-12)
    vals = np.where(feasible, np.log1p(g[:, 0] * p).sum(axis=-1), -np.inf)
    best = vals.max()
    ours = objective(res.powers.p_d2d)
    assert res.dual_cu.max() > 0            # the CU constraint really binds
    assert ours >= best - 1e-4 * abs(best)
    assert ours <= best + 0.05 * abs(best)  # grid can only undershoot


def test_power_loading_kkt_and_feasibility(tables):
    worst = 0.0
    for seed in range(10):
        cfg, gains, smap, zero = small_instance(tables, seed=seed)
        a = al.hungarian(itf.cu_to_d2d_cost_matrix(gains, zero,
                                                   tables[(OFDM, FBMC)], smap))
        res = al.power_loading(a, gains, tables, smap, cfg, FBMC)
        if res.status is not al.SolverStatus.OPTIMAL:
            continue
        assert res.kkt_residual < al.KKT_TOLERANCE
        worst = max(worst, res.kkt_residual)
        smap_a = smap.with_assignment(a.rb_of_pair)
        sinr = itf.cu_sinr_all(gains, res.powers, tables, smap_a,
                               cfg.noise_per_subcarrier_w, FBMC)
        gamma_min = 10 ** (cfg.cu_min_sinr / 10)
        assert np.all(sinr >= gamma_min * (1 - 1e-6))
        assert np.all(res.powers.p_d2d.sum(axis=1)
                      <= cfg.max_tx_power_w * (1 + 1e-9))
    assert worst < al.KKT_TOLERANCE


def test_power_loading_monotone_in_cap(tables):
    cfg, gains, smap, zero = small_instance(tables)
    a = al.hungarian(itf.cu_to_d2d_cost_matrix(gains, zero,
                                               tables[(OFDM, FBMC)], smap))
    objs = []
    for dbm in (18.0, 21.0, 24.0, 27.0):
        cfg_p = d.with_updates(cfg, max_tx_power=dbm)
        res = al.power_loading(a, gains, tables, smap, cfg_p, FBMC)
        smap_a = smap.with_assignment(a.rb_of_pair)
        objs.append(al.loading_objective(res.powers, gains, tables, smap_a,
                                         cfg_p, FBMC))
    assert all(b >= a_ - 1e-9 for a_, b in zip(objs, objs[1:]))


def test_power_loading_flags_infeasible_snapshot(tables):
    cfg, gains, smap, zero = small_instance(tables, cu_min_sinr=90.0)
    a = al.Assignment(np.array([0, 2, 4]))
    res = al.power_loading(a, gains, tables, smap, cfg, FBMC)
    assert res.status is al.SolverStatus.INFEASIBLE_SKIPPED
    assert np.all(res.powers.p_d2d == 0)


@pytest.mark.parametrize("layout", list(d.Layout))
@pytest.mark.parametrize("num_pairs", [1, 5, 10, 13])
def test_stacked_problems_equal_each_snapshot_alone(tables, layout,
                                                    num_pairs):
    """A block's stacked problems, built as a campaign builds them, hold in
    each snapshot's slice the bits of the problem built for that snapshot
    alone.  At a 47 dB CU floor the block holds skipped and solved
    snapshots; a skipped one ends INFEASIBLE_SKIPPED with zero powers, and
    a solved one as it does without the slice."""
    cfg = d.with_updates(d.ScenarioConfig(), num_d2d_pairs=num_pairs,
                         layout=layout, cu_min_sinr=47.0)
    rngs = [np.random.default_rng(s) for s in
            np.random.SeedSequence(1234).spawn(16)]
    placements = [d.sample_placement(cfg, rng) for rng in rngs]
    gains = d.gains_from_placement(d.NodePlacement(
        *(np.stack([getattr(p, name) for p in placements])
          for name in ("cu_pos", "d2d_tx_pos", "d2d_rx_pos"))), cfg, rngs)
    maps = [d.random_cu_map(cfg, rng) for rng in rngs]
    zero = itf.PowerAllocation(
        p_d2d=np.zeros((num_pairs, cfg.subcarriers_per_rb)),
        p_cu=d.uniform_cu_powers(cfg))
    for kind in (OFDM, FBMC):
        assignments = [al.hungarian(itf.cu_to_d2d_cost_matrix(
            gains[k], zero, tables[(OFDM, kind)], smap))
            for k, smap in enumerate(maps)]
        block_map = itf.SpectrumMap(
            rb_of_cu=np.stack([m.rb_of_cu for m in maps]),
            num_rbs=cfg.num_rbs, subcarriers_per_rb=cfg.subcarriers_per_rb,
            rb_of_d2d=np.stack([a.rb_of_pair for a in assignments]))
        stacked = al.loading_problems(gains, tables, block_map, cfg, kind)
        assert 0 < stacked[0].sum() < len(maps)
        for k, (assignment, smap) in enumerate(zip(assignments, maps)):
            problem = tuple(x[k] for x in stacked)
            alone = al.loading_problems(
                gains[k], tables, smap.with_assignment(assignment.rb_of_pair),
                cfg, kind)
            for got, want in zip(problem, alone):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            res = al.power_loading(assignment, gains[k], tables, smap, cfg,
                                   kind, problem=problem)
            if problem[0]:
                assert res.status is al.SolverStatus.INFEASIBLE_SKIPPED
                assert np.all(res.powers.p_d2d == 0)
            else:
                ref = al.power_loading(assignment, gains[k], tables, smap,
                                       cfg, kind)
                assert res.status is ref.status
                assert res.powers.p_d2d.tobytes() == \
                    ref.powers.p_d2d.tobytes()


def test_kkt_residual_scores_unsolved_dual(tables, monkeypatch):
    """The start water-fills each pair against its heaviest row alone, so
    its primal still overloads some other row of A by more than 1; with no
    Newton step taken it must not be scored as optimal."""
    cfg = d.ScenarioConfig()
    rng = np.random.default_rng(11)
    gains = d.gains_from_placement(d.sample_placement(cfg, rng), cfg, rng)
    smap = d.random_cu_map(cfg, rng)
    zero = itf.PowerAllocation(
        p_d2d=np.zeros((cfg.num_d2d_pairs, cfg.subcarriers_per_rb)),
        p_cu=d.uniform_cu_powers(cfg))
    a = al.hungarian(itf.cu_to_d2d_cost_matrix(gains, zero,
                                               tables[(OFDM, FBMC)], smap))
    monkeypatch.setattr(al, "MAX_NEWTON_STEPS", 0)
    res = al.power_loading(a, gains, tables, smap, cfg, FBMC)
    assert res.status is al.SolverStatus.MAX_ITER
    assert res.kkt_residual > 1e6 * al.KKT_TOLERANCE
    assert res.iterations_used == 0
    # the reported primal is still rescaled into feasibility
    sinr = itf.cu_sinr_all(gains, res.powers, tables,
                           smap.with_assignment(a.rb_of_pair),
                           cfg.noise_per_subcarrier_w, FBMC)
    assert np.all(sinr >= 10 ** (cfg.cu_min_sinr / 10) * (1 - 1e-9))


def water_filling_dual(c, g):
    """1/level of water-filling one pair against one row with weights c:
    level = min_n (1 + sum of the n smallest c/g) / n."""
    n = np.arange(1, len(g) + 1)
    return 1.0 / ((1.0 + np.cumsum(np.sort(c / g))) / n).min()


def start_instance(tables, seed, cu_min_sinr):
    """One FBMC pair in the default cell: its assignment, the spectrum map,
    and the solver's A and g."""
    cfg, gains, smap, zero = small_instance(tables, seed=seed, num_rbs=15,
                                            num_pairs=1,
                                            cu_min_sinr=cu_min_sinr)
    assignment = al.hungarian(itf.cu_to_d2d_cost_matrix(
        gains, zero, tables[(OFDM, FBMC)], smap))
    return (assignment, smap) + normalized_problem(assignment, gains, tables,
                                                   smap, cfg, FBMC)


def test_start_duals_on_loose_floor_water_fill_the_cap(tables):
    """A loose CU floor leaves the cap row heaviest: the start is the pair's
    closed-form water-filling dual against its cap, and every CU dual is 0."""
    _, _, a, g = start_instance(tables, seed=1, cu_min_sinr=-20.0)
    assert a[:-1].sum(axis=1).max() < g.shape[1]
    z = al._start_duals(a, g)
    assert np.all(z[:-1] == 0.0)
    n = np.arange(1, g.shape[1] + 1)
    assert z[-1] == 1.0 / ((1.0 + np.cumsum(np.sort(1.0 / g[0]))) / n).min()


@pytest.mark.parametrize("seed", [0, 2, 5])
def test_start_duals_meet_the_co_channel_cu_row(tables, seed):
    """At the default floor the co-channel CU row is heaviest; the start puts
    the pair's whole dual on it, and the water-filled primal meets that row
    with equality while no subcarrier clips at 1."""
    assignment, smap, a, g = start_instance(tables, seed=seed,
                                            cu_min_sinr=10.0)
    z = al._start_duals(a, g)
    (row,) = np.flatnonzero(z)
    assert smap.rb_of_cu[row] == assignment.rb_of_pair[0]
    assert z[row] == water_filling_dual(a[row], g[0])
    _, x = al._water_fill(z, a, 1.0 / g.ravel())
    assert np.all(x < 1.0)
    assert a[row] @ x == pytest.approx(1.0, abs=1e-12)


def test_start_duals_add_on_a_shared_row():
    """Two pairs whose heaviest row is the same: that row takes the sum of
    both water-filling duals, and the cap rows stay at 0."""
    a = np.array([[3.0, 3.0, 3.0, 3.0],
                  [1.0, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 1.0]])
    g = np.array([[2.0, 4.0], [1.0, 8.0]])
    z = al._start_duals(a, g)
    assert z[0] == pytest.approx(water_filling_dual(a[0, :2], g[0])
                                 + water_filling_dual(a[0, 2:], g[1]),
                                 rel=1e-15)
    assert np.all(z[1:] == 0.0)


def test_newton_solve_matches_numpy_and_rejects_singular():
    """The Newton step's LAPACK solve agrees with np.linalg.solve on a
    Hessian of the solver's shape, and raises as it does when the matrix is
    singular.  scipy may link another LAPACK build than numpy, so the bits
    can differ: the bound is the condition number times a few ulps."""
    rng = np.random.default_rng(7)
    af = rng.uniform(size=(25, 60))
    h = (af / rng.uniform(1.0, 2.0, size=60) ** 2) @ af.T
    b = rng.normal(size=25)
    ref = np.linalg.solve(h, b)
    tol = 16 * np.finfo(float).eps * np.linalg.cond(h)
    assert np.abs(al._solve(h, b) - ref).max() <= tol * np.abs(ref).max()
    with pytest.raises(np.linalg.LinAlgError):
        al._solve(np.ones((3, 3)), np.ones(3))


@pytest.fixture
def solves(monkeypatch):
    """Every power_loading result of the test, in call order."""
    recorded = []
    power_loading = al.power_loading

    def recording_power_loading(*args, **kwargs):
        res = power_loading(*args, **kwargs)
        recorded.append(res)
        return res

    monkeypatch.setattr(al, "power_loading", recording_power_loading)
    return recorded


@pytest.mark.parametrize("layout", list(d.Layout))
def test_start_duals_keep_newton_phase_short(tables, solves, layout):
    """From the water-filling start against each pair's heaviest row, a
    default campaign's solves all end OPTIMAL in a median of at most 8
    Newton steps (16 from a start with every CU dual at 0)."""
    cfg = d.with_updates(d.ScenarioConfig(), seed=5000, iterations=20,
                         layout=layout)
    d.run_campaign(cfg, tables)
    assert len(solves) == 40
    assert all(res.status is al.SolverStatus.OPTIMAL for res in solves)
    assert np.median([res.iterations_used for res in solves]) <= 8


def test_newton_steps_bounded_on_stall_campaign(tables, solves,
                                                monkeypatch):
    """In this campaign the OFDM solve of snapshot 5 stalls a Newton phase
    whose Armijo test differences two rounded dual values (9,999 steps when
    unbounded): every solve must end OPTIMAL within MAX_NEWTON_STEPS, with
    no L-BFGS-B call behind it."""
    def no_minimize(*args, **kwargs):
        raise AssertionError("power_loading must not call scipy's minimize")

    monkeypatch.setattr(al, "minimize", no_minimize, raising=False)
    monkeypatch.setattr(scipy.optimize, "minimize", no_minimize)
    cfg = d.with_updates(d.ScenarioConfig(), seed=2000085, iterations=20)
    d.run_campaign(cfg, tables)
    assert len(solves) == 40
    for res in solves:
        assert res.status is al.SolverStatus.OPTIMAL
        assert res.iterations_used <= al.MAX_NEWTON_STEPS


def test_max_iter_stall_snapshot_ends_optimal(tables, solves):
    """Both solves of this one-snapshot campaign (11 pairs, seed 951026653)
    end OPTIMAL.  With the damping started at 1e-3, the OFDM solve stopped
    MAX_ITER after 50 Newton steps with a KKT residual of 0.3625, its
    active set flipping between 10 and 11 free duals on alternate steps."""
    cfg = d.with_updates(d.ScenarioConfig(), num_d2d_pairs=11,
                         seed=951026653, iterations=1)
    d.run_campaign(cfg, tables)
    assert len(solves) == 2
    assert all(res.status is al.SolverStatus.OPTIMAL for res in solves)


@pytest.mark.parametrize("kind", [OFDM, FBMC])
def test_projected_newton_from_zero_duals(tables, kind):
    """From all-zero duals every column water-fills at w = 0, where the
    Hessian weight 1/w^2 is undefined, so the first step must leave those
    columns out without a division (a RuntimeWarning fails the test).  The
    solve still ends below KKT_TOLERANCE, at the objective of the solve
    from _start_duals, on small instances (4 RBs, 3 pairs)."""
    for seed in range(6):
        cfg, gains, smap, zero = small_instance(tables, seed=seed, num_rbs=4)
        assignment = al.hungarian(itf.cu_to_d2d_cost_matrix(
            gains, zero, tables[(OFDM, kind)], smap))
        a, g = normalized_problem(assignment, gains, tables, smap, cfg, kind)
        assert np.all(a >= 0)               # no negative CU headroom
        objective = []
        for z in (np.zeros(len(a)), al._start_duals(a, g)):
            _, x, kkt, _ = al._projected_newton(z, a, g.ravel())
            assert kkt < al.KKT_TOLERANCE
            objective.append(np.log1p(g.ravel() * x).sum())
        assert objective[0] == pytest.approx(objective[1], rel=1e-8)


def normalized_problem(assignment, gains, tables, smap, cfg, kind):
    """The solver's constraint matrix A (CU rows, then one cap row per pair)
    and gains g shaped (pairs, S), rebuilt from the module's definitions."""
    smap = smap.with_assignment(assignment.rb_of_pair)
    num_pairs, s = len(assignment.rb_of_pair), smap.subcarriers_per_rb
    zero = itf.PowerAllocation(p_d2d=np.zeros((num_pairs, s)),
                               p_cu=d.uniform_cu_powers(cfg))
    c, t = al.cu_constraint_coefficients(gains, tables, smap, zero.p_cu, cfg,
                                         kind)
    p_max = cfg.max_tx_power_w
    a = np.vstack([c.reshape(len(t), -1) * p_max / t[:, None],
                   np.kron(np.eye(num_pairs), np.ones(s))])
    i_cu = itf.i_cu_matrix(gains, zero, tables[(OFDM, kind)], smap)
    return a, p_max * gains.h_self[:, None] / (cfg.noise_per_subcarrier_w + i_cu)


def lbfgsb_reference(assignment, gains, tables, smap, cfg, kind):
    """Oracle: the optimum of the same normalized dual, minimized by scipy's
    L-BFGS-B from z = 0 to a tight tolerance (strong duality makes it the
    primal optimum).  L-BFGS-B can stop above the minimum, so the oracle is
    the smaller of the dual at its point and at ``al.power_loading``'s
    duals: by weak duality the dual at any z >= 0 bounds the primal optimum
    from above, so a feasible objective within rel 1e-6 of the oracle is
    within 1e-6 of the optimum."""
    a, g = normalized_problem(assignment, gains, tables, smap, cfg, kind)
    g = g.ravel()

    def dual(z):
        x = np.clip(1.0 / np.maximum(z @ a, 1e-300) - 1.0 / g, 0.0, 1.0)
        slack = 1.0 - a @ x
        return np.log1p(g * x).sum() + z @ slack, slack

    res = minimize(dual, np.zeros(len(a)), jac=True, method="L-BFGS-B",
                   bounds=[(0.0, None)] * len(a),
                   options=dict(maxiter=10_000, ftol=1e-15, gtol=1e-10))
    solved = al.power_loading(assignment, gains, tables, smap, cfg, kind)
    return min(float(res.fun),
               dual(np.concatenate([solved.dual_cu, solved.dual_cap]))[0])


@st.composite
def solver_instances(draw):
    num_rbs = draw(st.integers(2, 6))
    return (num_rbs, draw(st.integers(1, num_rbs)),
            draw(st.sampled_from([1, 2, 12])),
            draw(st.floats(0.0, 30.0)), draw(st.sampled_from([OFDM, FBMC])),
            draw(st.integers(0, 2 ** 32 - 1)))


@pytest.mark.parametrize("instance", [
    (4, 4, 1, 21.403390844988625, OFDM, 662733432),
    (4, 2, 1, 26.39181369032927, OFDM, 2978111633),
    (2, 2, 2, 11.8371841547573, OFDM, 3174099132),
    (3, 1, 1, 27.298004187295028, OFDM, 4288688477),
    (2, 2, 1, 11.567267674389202, FBMC, 2726553711),
], ids=["was_max_iter", "was_short", "lbfgsb_stall_0", "lbfgsb_stall_1",
        "lbfgsb_stall_2"])
def test_power_loading_former_failures(tables, instance):
    """Instances the damping's former 1e-3 start failed: the first ended
    MAX_ITER 7.2% short of the optimum, the second OPTIMAL but 9.4e-6
    short.  On the last three L-BFGS-B alone stops above the dual minimum,
    so they failed while the oracle was its value alone.  All must end
    OPTIMAL at the oracle's optimum."""
    num_rbs, num_pairs, s, cu_min_sinr, kind, seed = instance
    cfg, gains, smap, zero = small_instance(
        tables, seed=seed, num_rbs=num_rbs, num_pairs=num_pairs,
        subcarriers_per_rb=s, cu_min_sinr=cu_min_sinr)
    a = al.hungarian(itf.cu_to_d2d_cost_matrix(gains, zero,
                                               tables[(OFDM, kind)], smap))
    res = al.power_loading(a, gains, tables, smap, cfg, kind)
    assert res.status is al.SolverStatus.OPTIMAL
    ours = al.loading_objective(res.powers, gains, tables,
                                smap.with_assignment(a.rb_of_pair), cfg, kind)
    ref = lbfgsb_reference(a, gains, tables, smap, cfg, kind)
    assert ours == pytest.approx(ref, rel=1e-6)


@settings(derandomize=True, deadline=None, max_examples=400)
@example(instance=(2, 2, 1, 25.0, FBMC, 8))     # criterion 2's toy
@given(instance=solver_instances())
def test_power_loading_matches_lbfgsb_reference(tables, instance):
    """Random small instances: the solve never ends MAX_ITER, and every
    OPTIMAL solve is KKT-accurate, meets each CU SINR floor, and attains the
    L-BFGS-B optimum of the same dual."""
    num_rbs, num_pairs, s, cu_min_sinr, kind, seed = instance
    cfg = d.with_updates(d.ScenarioConfig(), num_rbs=num_rbs,
                         num_d2d_pairs=num_pairs, subcarriers_per_rb=s,
                         cu_min_sinr=cu_min_sinr)
    rng = np.random.default_rng(seed)
    gains = d.gains_from_placement(d.sample_placement(cfg, rng), cfg, rng)
    smap = d.random_cu_map(cfg, rng)
    zero = itf.PowerAllocation(p_d2d=np.zeros((num_pairs, s)),
                               p_cu=d.uniform_cu_powers(cfg))
    a = al.hungarian(itf.cu_to_d2d_cost_matrix(gains, zero,
                                               tables[(OFDM, kind)], smap))
    res = al.power_loading(a, gains, tables, smap, cfg, kind)
    assert res.status is not al.SolverStatus.MAX_ITER
    if res.status is al.SolverStatus.INFEASIBLE_SKIPPED:
        return
    assert res.kkt_residual < al.KKT_TOLERANCE
    smap_a = smap.with_assignment(a.rb_of_pair)
    sinr = itf.cu_sinr_all(gains, res.powers, tables, smap_a,
                           cfg.noise_per_subcarrier_w, kind)
    assert np.all(sinr >= 10 ** (cu_min_sinr / 10) * (1 - 1e-9))
    ours = al.loading_objective(res.powers, gains, tables, smap_a, cfg, kind)
    ref = lbfgsb_reference(a, gains, tables, smap, cfg, kind)
    assert ours == pytest.approx(ref, rel=1e-6)
