import numpy as np
import pytest

import d2d_underlay as d
from d2d_underlay import interference as itf
from d2d_underlay import waveform as wf

OFDM = wf.WaveformType.OFDM
FBMC = wf.WaveformType.FBMC_OQAM


def small_config(num_rbs=3, num_pairs=2, **kw):
    return d.with_updates(d.ScenarioConfig(), num_rbs=num_rbs,
                          num_d2d_pairs=num_pairs, **kw)


def make_instance(cfg, tables, seed=11, d2d_kind=FBMC):
    rng = np.random.default_rng(seed)
    placement = d.sample_placement(cfg, rng)
    gains = d.gains_from_placement(placement, cfg, rng)
    smap = d.random_cu_map(cfg, rng)
    smap = smap.with_assignment(
        rng.permutation(cfg.num_rbs)[:cfg.num_d2d_pairs])
    p_d2d = rng.uniform(0, cfg.max_tx_power_w / cfg.subcarriers_per_rb,
                        size=(cfg.num_d2d_pairs, cfg.subcarriers_per_rb))
    powers = itf.PowerAllocation(p_d2d=p_d2d, p_cu=d.uniform_cu_powers(cfg))
    return gains, powers, smap


# ---------------------------------------------------------------------------
# brute-force oracles (naive triple sums, no kernels)
# ---------------------------------------------------------------------------

def leak(table, l):
    """I(l): the table's coefficient at |l|, 0 beyond its half span."""
    return table.coeffs[abs(l)] if abs(l) <= table.half_span else 0.0


def brute_i_cu(j, m, gains, powers, table, smap):
    S = smap.subcarriers_per_rb
    km = smap.rb_of_d2d[j] * S + m
    tot = 0.0
    for i in range(len(smap.rb_of_cu)):
        for k in range(S):
            kk = smap.rb_of_cu[i] * S + k
            tot += (gains.h_cu_d2d[i, j] * (powers.p_cu[i] / S)
                    * leak(table, km - kk))
    return tot


def brute_i_d2d(j, m, gains, powers, table, smap):
    S = smap.subcarriers_per_rb
    km = smap.rb_of_d2d[j] * S + m
    tot = 0.0
    for dd in range(len(smap.rb_of_d2d)):
        if dd == j:
            continue
        for n in range(S):
            kn = smap.rb_of_d2d[dd] * S + n
            tot += (gains.h_d2d_d2d[j, dd] * powers.p_d2d[dd, n]
                    * leak(table, km - kn))
    return tot


def brute_omega(j, i, gains, powers, table, smap):
    S = smap.subcarriers_per_rb
    tot = 0.0
    for m in range(S):
        for k in range(S):
            km = smap.rb_of_d2d[j] * S + m
            kk = smap.rb_of_cu[i] * S + k
            tot += powers.p_d2d[j, m] * leak(table, kk - km)
    return gains.h_d2d_bs[j] * tot


def brute_cost(j, r, gains, powers, table, smap):
    S = smap.subcarriers_per_rb
    tot = 0.0
    for i in range(len(smap.rb_of_cu)):
        for k in range(S):
            for m in range(S):
                tot += (gains.h_cu_d2d[i, j] * (powers.p_cu[i] / S)
                        * leak(table, r * S + m
                               - (smap.rb_of_cu[i] * S + k)))
    return tot


@pytest.mark.parametrize("kind", [OFDM, FBMC])
def test_oracle_equivalence_all_expressions(kind, tables):
    cfg = small_config()
    gains, powers, smap = make_instance(cfg, tables, d2d_kind=kind)
    noise = cfg.noise_per_subcarrier_w
    S = cfg.subcarriers_per_rb

    t_cu = tables[(OFDM, kind)]
    t_dd = tables[(kind, kind)]
    t_bs = tables[(kind, OFDM)]

    i_cu = itf.i_cu_matrix(gains, powers, t_cu, smap)
    i_dd = itf.i_d2d_matrix(gains, powers, t_dd, smap)
    actual, predicted = itf.d2d_sinr_matrices(gains, powers, tables, smap,
                                              noise, kind)
    cost = itf.cu_to_d2d_cost_matrix(gains, powers, t_cu, smap)
    cu_sinr = itf.cu_sinr_all(gains, powers, tables, smap, noise, kind)
    c = itf.d2d_to_cu_coefficients(gains, t_bs, smap)

    for j in range(cfg.num_d2d_pairs):
        for m in range(S):
            ref_cu = brute_i_cu(j, m, gains, powers, t_cu, smap)
            ref_dd = brute_i_d2d(j, m, gains, powers, t_dd, smap)
            assert i_cu[j, m] == pytest.approx(ref_cu, rel=1e-12)
            assert i_dd[j, m] == pytest.approx(ref_dd, rel=1e-12, abs=1e-300)
            num = powers.p_d2d[j, m] * gains.h_self[j]
            assert actual[j, m] == pytest.approx(
                num / (noise + ref_cu + ref_dd), rel=1e-12)
            assert predicted[j, m] == pytest.approx(
                num / (noise + ref_cu), rel=1e-12)
        for r in range(cfg.num_rbs):
            assert cost[j, r] == pytest.approx(
                brute_cost(j, r, gains, powers, t_cu, smap), rel=1e-12)
    for i in range(cfg.num_cus):
        omegas = [brute_omega(j, i, gains, powers, t_bs, smap)
                  for j in range(cfg.num_d2d_pairs)]
        for j, omega in enumerate(omegas):
            assert c[i, j] @ powers.p_d2d[j] == pytest.approx(omega, rel=1e-12)
        denom = noise * S + sum(omegas)
        ref = powers.p_cu[i] * gains.h_cu_bs[i] / denom
        assert cu_sinr[i] == pytest.approx(ref, rel=1e-12)


def test_no_d2d_means_interference_free_cu(tables):
    cfg = small_config()
    rng = np.random.default_rng(2)
    placement = d.sample_placement(cfg, rng)
    gains = d.gains_from_placement(placement, cfg, rng)
    smap = d.random_cu_map(cfg, rng).with_assignment(
        np.arange(cfg.num_d2d_pairs))
    powers = itf.PowerAllocation(
        p_d2d=np.zeros((cfg.num_d2d_pairs, 12)),
        p_cu=d.uniform_cu_powers(cfg))
    sinr = itf.cu_sinr_all(gains, powers, tables, smap,
                           cfg.noise_per_subcarrier_w, FBMC)
    expected = powers.p_cu * gains.h_cu_bs / (cfg.noise_per_subcarrier_w * 12)
    assert np.allclose(sinr, expected, rtol=1e-15)


def test_linearity_and_monotonicity(tables):
    cfg = small_config()
    gains, powers, smap = make_instance(cfg, tables)
    base = itf.i_cu_matrix(gains, powers, tables[(OFDM, FBMC)], smap)
    double = itf.i_cu_matrix(
        gains, itf.PowerAllocation(p_d2d=powers.p_d2d, p_cu=2 * powers.p_cu),
        tables[(OFDM, FBMC)], smap)
    assert np.allclose(double, 2 * base, rtol=1e-14)
    # raising a coupled D2D power strictly lowers every CU SINR
    sinr0 = itf.cu_sinr_all(gains, powers, tables, smap,
                            cfg.noise_per_subcarrier_w, FBMC)
    boosted = itf.PowerAllocation(p_d2d=powers.p_d2d * 3, p_cu=powers.p_cu)
    sinr1 = itf.cu_sinr_all(gains, boosted, tables, smap,
                            cfg.noise_per_subcarrier_w, FBMC)
    assert np.all(sinr1 < sinr0)


def test_predicted_dominates_actual(tables):
    cfg = small_config()
    gains, powers, smap = make_instance(cfg, tables)
    actual, predicted = itf.d2d_sinr_matrices(
        gains, powers, tables, smap, cfg.noise_per_subcarrier_w, OFDM)
    assert np.all(predicted >= actual)
    # with one pair there is no inter-D2D term at all
    cfg1 = small_config(num_pairs=1)
    gains, powers, smap = make_instance(cfg1, tables)
    actual, predicted = itf.d2d_sinr_matrices(
        gains, powers, tables, smap, cfg1.noise_per_subcarrier_w, FBMC)
    assert np.array_equal(actual, predicted)


def test_scale_invariance(tables):
    """SINR is homogeneous of degree zero in (all powers, noise)."""
    cfg = small_config()
    gains, powers, smap = make_instance(cfg, tables)
    noise = cfg.noise_per_subcarrier_w
    scaled = itf.PowerAllocation(p_d2d=10 * powers.p_d2d, p_cu=10 * powers.p_cu)
    a0, p0 = itf.d2d_sinr_matrices(gains, powers, tables, smap, noise, FBMC)
    a1, p1 = itf.d2d_sinr_matrices(gains, scaled, tables, smap, 10 * noise, FBMC)
    assert np.allclose(a0, a1, rtol=1e-12)
    assert np.allclose(p0, p1, rtol=1e-12)
    s0 = itf.cu_sinr_all(gains, powers, tables, smap, noise, FBMC)
    s1 = itf.cu_sinr_all(gains, scaled, tables, smap, 10 * noise, FBMC)
    assert np.allclose(s0, s1, rtol=1e-12)


def test_fbmc_nonadjacent_rb_isolation(tables):
    """Filter-bank pairs on RBs two apart see nearly no mutual leakage."""
    cfg = small_config(num_rbs=3, num_pairs=2)
    gains, powers, smap = make_instance(cfg, tables)
    smap = smap.with_assignment(np.array([0, 2]))
    far = itf.i_d2d_matrix(gains, powers, tables[(FBMC, FBMC)], smap)
    smap_co = smap.with_assignment(np.array([0, 1]))
    near = itf.i_d2d_matrix(gains, powers, tables[(FBMC, FBMC)], smap_co)
    assert far.max() < 1e-6 * near.max()


def test_spectrum_map_validation():
    with pytest.raises(ValueError):
        itf.SpectrumMap(rb_of_cu=np.array([0, 0, 1]), num_rbs=3,
                        subcarriers_per_rb=12).validate()
    smap = itf.SpectrumMap(rb_of_cu=np.array([2, 0, 1]), num_rbs=3,
                           subcarriers_per_rb=12).validate()
    with pytest.raises(ValueError):
        smap.with_assignment([1, 1])
    with pytest.raises(ValueError):
        smap.with_assignment([0, 3])


def test_power_allocation_validation():
    with pytest.raises(ValueError):
        itf.PowerAllocation(p_d2d=np.array([[-1.0]]),
                            p_cu=np.array([1.0])).validate(max_tx_power_w=1.0)
    with pytest.raises(ValueError):
        itf.PowerAllocation(p_d2d=np.full((1, 12), 1.0),
                            p_cu=np.array([1.0])).validate(max_tx_power_w=0.25)
    # a block, shaped (snapshots, pairs, subcarriers), is checked per pair
    # over its subcarriers, not per subcarrier over pairs
    p = np.full((2, 13, 12), 0.25 / 12)      # every pair exactly at its cap
    block = itf.PowerAllocation(p_d2d=p, p_cu=np.array([1.0]))
    assert block.validate(max_tx_power_w=0.25) is block
    p = np.zeros((2, 3, 12))
    p[1, 2] = 1.5 * 0.25 / 12                # one pair 50% over its cap
    with pytest.raises(ValueError, match="cap"):
        itf.PowerAllocation(p_d2d=p, p_cu=np.array([1.0])).validate(
            max_tx_power_w=0.25)


def test_truncation_beyond_half_span(tables):
    """Links separated by more than the table span contribute nothing."""
    t = tables[(FBMC, OFDM)]
    cfg = d.with_updates(d.ScenarioConfig(), num_rbs=8, num_d2d_pairs=2)
    gains, _, smap = make_instance(cfg, tables)
    smap = smap.with_assignment(np.array([0, 7]))
    # pair 0 on RB 0 vs the CU on RB 7: separation >= 6*12 - 11 > 36
    cu_on_7 = int(np.flatnonzero(smap.rb_of_cu == 7)[0])
    assert not itf.d2d_to_cu_coefficients(gains, t, smap)[cu_on_7, 0].any()
