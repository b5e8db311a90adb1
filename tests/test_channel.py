import numpy as np
import pytest

import d2d_underlay as d
from d2d_underlay import channel as ch


def test_los_probability_limits():
    assert d.los_probability(1e-6) == pytest.approx(1.0)
    # both branches saturate at 18 m
    assert d.los_probability(18.0) == pytest.approx(1.0, abs=1e-12)
    expected = 0.18 * (1 - np.exp(-100 / 36)) + np.exp(-100 / 36)
    assert d.los_probability(100.0) == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError):
        d.los_probability(0.0)
    with pytest.raises(ValueError):
        d.los_probability(-5.0)


def test_los_probability_monotone_decreasing():
    dd = np.linspace(18.0, 500.0, 200)
    p = d.los_probability(dd)
    assert np.all(np.diff(p) <= 1e-12)
    assert np.all((p >= 0) & (p <= 1))


def test_pathloss_los_reference_value():
    # 22.7*log10(100) + 41.0 + 20*log10(0.7/5)
    expected = 22.7 * 2 + 41.0 + 20 * np.log10(0.7 / 5.0)
    assert d.pathloss_db(100.0, 700e6, True) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(69.32, abs=0.01)


def test_pathloss_monotone_in_distance():
    dd = np.linspace(3.0, 500.0, 300)
    for los in (True, False):
        pl = d.pathloss_db(dd, 700e6, los)
        assert np.all(np.diff(pl) > 0)


def test_nlos_exceeds_los_beyond_model_crossover():
    # the single-slope forms cross near 23 m at 700 MHz; above that the
    # obstructed path always loses more
    dd = np.linspace(25.0, 500.0, 200)
    assert np.all(d.pathloss_db(dd, 700e6, False) > d.pathloss_db(dd, 700e6, True))


def test_gains_clamped_and_bounded(rng):
    cfg = d.ScenarioConfig()
    p = d.sample_placement(cfg, rng)
    # force a coincident pair to exercise the 3 m clamp
    p.d2d_rx_pos[0] = p.d2d_tx_pos[0]
    g = d.gains_from_placement(p, cfg, rng)
    for arr in (g.h_cu_bs, g.h_d2d_bs, g.h_cu_d2d, g.h_d2d_d2d):
        assert np.all(np.isfinite(arr))
        assert np.all((arr > 0) & (arr <= 1))
    assert np.array_equal(g.h_self, np.diagonal(g.h_d2d_d2d))
    assert g.h_cu_d2d.shape == (cfg.num_cus, cfg.num_d2d_pairs)


def test_gains_determinism(rng):
    cfg = d.ScenarioConfig()
    p = d.sample_placement(cfg, rng)
    g1 = d.gains_from_placement(p, cfg, np.random.default_rng(3))
    g2 = d.gains_from_placement(p, cfg, np.random.default_rng(3))
    assert np.array_equal(g1.h_cu_d2d, g2.h_cu_d2d)
    assert np.array_equal(g1.h_d2d_d2d, g2.h_d2d_d2d)


def test_los_fraction_matches_probability(rng):
    """At one distance a link's gain takes its LOS value (a draw of 0 is
    always LOS) or its NLOS value (a draw of 1 never is), and the LOS share
    matches the LOS probability."""
    dist = np.full(10_000, 50.0)
    gain = ch._link_gain(dist, 700e6, rng.uniform(size=dist.shape))
    los, nlos = (ch._link_gain(dist[:1], 700e6, np.array([u]))[0]
                 for u in (0.0, 1.0))
    assert set(np.unique(gain)) == {los, nlos}
    assert np.mean(gain == los) == pytest.approx(d.los_probability(50.0),
                                                 abs=0.02)


def loop_gains(placement, config, rng):
    """Oracle: one ``_link_gain`` draw per link group, in the documented
    order, which one block draw in ``gains_from_placement`` replaces."""
    cu, tx, rx = placement.cu_pos, placement.d2d_tx_pos, placement.d2d_rx_pos
    groups = (np.linalg.norm(cu, axis=1), np.linalg.norm(tx, axis=1),
              np.linalg.norm(cu[:, None, :] - rx[None, :, :], axis=2),
              np.linalg.norm(tx[None, :, :] - rx[:, None, :], axis=2))
    return [ch._link_gain(dist, config.carrier_freq,
                          rng.uniform(size=dist.shape)) for dist in groups]


@pytest.mark.parametrize("seed", [0, 1, 17])
@pytest.mark.parametrize("updates", [{}, dict(layout=d.Layout.NON_CLUSTERED),
                                     dict(num_d2d_pairs=3)])
def test_gains_match_one_draw_per_link_group(updates, seed):
    cfg = d.with_updates(d.ScenarioConfig(), **updates)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        p = d.sample_placement(cfg, rng)
        state = rng.bit_generator.state
        expected = loop_gains(p, cfg, rng)
        expected_next = rng.random(4)
        rng.bit_generator.state = state
        g = d.gains_from_placement(p, cfg, rng)
        # LOS and NLOS gains differ, so equal gains mean equal LOS states
        actual = [g.h_cu_bs, g.h_d2d_bs, g.h_cu_d2d, g.h_d2d_d2d]
        for h, h_ref in zip(actual, expected):
            assert h.shape == h_ref.shape
            assert np.array_equal(h, h_ref)
        assert np.array_equal(rng.random(4), expected_next)


def test_block_gains_match_each_snapshot_alone():
    """Placements stacked on a leading block axis, with one generator per
    snapshot, get bit for bit the gains each snapshot gets alone."""
    cfg = d.with_updates(d.ScenarioConfig(), layout=d.Layout.NON_CLUSTERED)
    rngs = [np.random.default_rng(seed) for seed in range(5)]
    placements = [d.sample_placement(cfg, rng) for rng in rngs]
    states = [rng.bit_generator.state for rng in rngs]
    alone = [d.gains_from_placement(p, cfg, rng)
             for p, rng in zip(placements, rngs)]
    for rng, state in zip(rngs, states):
        rng.bit_generator.state = state
    block = d.NodePlacement(*(np.stack([getattr(p, name) for p in placements])
                              for name in ("cu_pos", "d2d_tx_pos",
                                           "d2d_rx_pos")))
    g = d.gains_from_placement(block, cfg, rngs)
    assert g.h_cu_d2d.shape == (5, cfg.num_cus, cfg.num_d2d_pairs)
    for k, gk in enumerate(alone):
        for name, value in vars(gk).items():
            assert np.array_equal(getattr(g[k], name), value)
        assert np.array_equal(g[k].h_self, gk.h_self)
