import os
import stat
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

import d2d_underlay as d
from d2d_underlay import channel as ch
from d2d_underlay import geometry as geo


def test_config_defaults_valid():
    cfg = d.ScenarioConfig()
    assert cfg.num_cus == cfg.num_rbs == 15
    assert cfg.max_tx_power_w == pytest.approx(10 ** (24 / 10) / 1000)
    assert cfg.noise_per_subcarrier_w == pytest.approx(10 ** (-127 / 10) / 1000)


def test_num_cus_follows_num_rbs():
    cfg = d.ScenarioConfig(num_d2d_pairs=3)
    assert d.with_updates(cfg, num_rbs=5).num_cus == 5


def test_config_rejects_structural_violations():
    with pytest.raises(d.ConfigurationError):
        d.with_updates(d.ScenarioConfig(), num_d2d_pairs=16)
    with pytest.raises(d.ConfigurationError):
        d.with_updates(d.ScenarioConfig(), cluster_radius_min=120.0)
    with pytest.raises(d.ConfigurationError):
        d.with_updates(d.ScenarioConfig(), cell_radius=-1.0)
    with pytest.raises(d.ConfigurationError):
        d.with_updates(d.ScenarioConfig(), iterations=0)
    with pytest.raises(d.ConfigurationError, match="seed"):
        d.with_updates(d.ScenarioConfig(), seed=-1)


FLOAT_FIELDS = [f.name for f in fields(d.ScenarioConfig)
                if f.type.startswith("float")]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_config_rejects_non_finite_floats(name, value):
    with pytest.raises(d.ConfigurationError, match=name):
        d.with_updates(d.ScenarioConfig(), **{name: value})


def test_fixed_radius_containment(rng):
    cfg = d.with_updates(d.ScenarioConfig(), cluster_radius_min=70.0,
                         cluster_radius_max=70.0)
    for _ in range(50):
        p = d.sample_placement(cfg, rng)
        assert p.cluster_radius == 70.0
        dist = np.linalg.norm(p.d2d_tx_pos - p.cluster_centre, axis=1)
        assert np.all(dist <= 70.0 + 1e-9)


def test_cluster_radius_exceeding_cell_rejected(rng):
    with pytest.raises(d.ConfigurationError):
        cfg = d.with_updates(d.ScenarioConfig(), cluster_radius_min=251.0,
                             cluster_radius_max=251.0)
        d.sample_placement(cfg, rng)


def test_config_rejects_cluster_beyond_cell():
    base = d.ScenarioConfig()
    with pytest.raises(d.ConfigurationError, match="radius 300.0 m"):
        d.with_updates(base, cluster_radius_min=300.0,
                       cluster_radius_max=300.0)
    with pytest.raises(d.ConfigurationError, match="distance 200.0 m"):
        d.with_updates(base, cluster_radius_min=60.0, cluster_radius_max=60.0,
                       cluster_distance_fixed=200.0)
    d.with_updates(base, cluster_radius_min=60.0, cluster_radius_max=60.0,
                   cluster_distance_fixed=190.0)
    # with a radius range the largest radius must fit
    with pytest.raises(d.ConfigurationError, match="radius 300.0 m"):
        d.with_updates(base, cluster_radius_max=300.0)
    with pytest.raises(d.ConfigurationError, match="distance 160.0 m"):
        d.with_updates(base, cluster_distance_fixed=160.0)  # 160 + 100 > 250
    d.with_updates(base, cluster_distance_fixed=150.0)
    # without a cluster the radius only sets the longest D2D link
    d.with_updates(base, layout=geo.Layout.NON_CLUSTERED,
                   cluster_radius_min=300.0, cluster_radius_max=300.0)


def test_cu_positions_area_uniform(rng):
    cfg = d.ScenarioConfig()
    radii = []
    for _ in range(10_000 // cfg.num_cus + 1):
        p = d.sample_placement(cfg, rng)
        radii.extend(np.linalg.norm(p.cu_pos, axis=1))
    radii = np.asarray(radii[:10_000])
    ks = stats.kstest(radii / cfg.cell_radius, lambda r: r ** 2)
    assert ks.statistic < 0.02


def test_placement_at_distance(rng):
    cfg = d.with_updates(d.ScenarioConfig(), cluster_radius_min=70.0,
                         cluster_radius_max=70.0)
    p = d.sample_placement(d.with_updates(cfg, cluster_distance_fixed=0.0), rng)
    assert np.linalg.norm(p.cluster_centre) == pytest.approx(0.0, abs=1e-12)
    p = d.sample_placement(d.with_updates(cfg, cluster_distance_fixed=180.0),
                           rng)                             # 180 + 70 = 250
    assert np.linalg.norm(p.cluster_centre) == pytest.approx(180.0)
    with pytest.raises(d.ConfigurationError):
        d.with_updates(cfg, cluster_distance_fixed=200.0)


def test_fixed_distance_via_config(rng):
    cfg = d.with_updates(d.ScenarioConfig(), cluster_radius_min=70.0,
                         cluster_radius_max=70.0, cluster_distance_fixed=100.0)
    p = d.sample_placement(cfg, rng)
    assert np.linalg.norm(p.cluster_centre) == pytest.approx(100.0)


def test_determinism():
    cfg = d.ScenarioConfig()
    a = d.sample_placement(cfg, np.random.default_rng(5))
    b = d.sample_placement(cfg, np.random.default_rng(5))
    assert np.array_equal(a.cu_pos, b.cu_pos)
    assert np.array_equal(a.d2d_tx_pos, b.d2d_tx_pos)
    assert np.array_equal(a.d2d_rx_pos, b.d2d_rx_pos)


@pytest.mark.parametrize("layout", [geo.Layout.CLUSTERED, geo.Layout.NON_CLUSTERED])
def test_containment_invariants(layout, rng):
    cfg = d.with_updates(d.ScenarioConfig(), layout=layout)
    for _ in range(500):
        p = d.sample_placement(cfg, rng)
        r = cfg.cell_radius + 1e-9
        for arr in (p.cu_pos, p.d2d_tx_pos, p.d2d_rx_pos):
            assert np.all(np.linalg.norm(arr, axis=1) <= r)
        if layout is geo.Layout.CLUSTERED:
            dist = np.linalg.norm(p.d2d_tx_pos - p.cluster_centre, axis=1)
            assert np.all(dist <= p.cluster_radius + 1e-9)
            assert np.all(np.linalg.norm(p.d2d_tx_pos - p.d2d_rx_pos, axis=1)
                          <= cfg.d2d_max_link_factor * p.cluster_radius + 1e-9)
        else:
            assert np.all(np.linalg.norm(p.d2d_tx_pos - p.d2d_rx_pos, axis=1)
                          <= cfg.d2d_max_link_factor
                          * cfg.cluster_radius_max + 1e-9)


def test_cluster_radius_range(rng):
    cfg = d.ScenarioConfig()
    radii = [d.sample_placement(cfg, rng).cluster_radius for _ in range(200)]
    assert min(radii) >= cfg.cluster_radius_min
    assert max(radii) <= cfg.cluster_radius_max


def test_config_file_round_trip(tmp_path):
    cfg = d.with_updates(d.ScenarioConfig(), cluster_radius_min=70.0,
                         cluster_radius_max=70.0,
                         layout=geo.Layout.NON_CLUSTERED, seed=42)
    path = tmp_path / "c.cfg"
    d.save_config(cfg, path)
    assert d.load_config(path) == cfg


@st.composite
def scenario_configs(draw):
    """Valid configs over every ScenarioConfig field."""
    # +/-300 dB(m) converts to a finite, positive linear value
    db = st.floats(min_value=-300.0, max_value=300.0)
    positive = st.floats(min_value=1e-3, max_value=1e6)
    cell = draw(positive)
    r_max = draw(st.floats(min_value=1e-3, max_value=cell))
    num_rbs = draw(st.integers(1, 64))
    values = dict(
        cell_radius=cell, carrier_freq=draw(positive),
        subcarrier_spacing=draw(positive), num_rbs=num_rbs,
        subcarriers_per_rb=draw(st.integers(1, 64)),
        num_d2d_pairs=draw(st.integers(1, num_rbs)),
        layout=draw(st.sampled_from(geo.Layout)),
        cluster_radius_min=draw(st.floats(min_value=1e-3, max_value=r_max)),
        cluster_radius_max=r_max,
        cluster_distance_fixed=draw(
            st.none() | st.floats(min_value=0.0, max_value=cell - r_max)),
        d2d_max_link_factor=draw(positive), cu_min_sinr=draw(db),
        noise_per_subcarrier=draw(db), max_tx_power=draw(db),
        cu_tx_power=draw(db), iterations=draw(st.integers(1, 10 ** 9)),
        seed=draw(st.integers(0, 2 ** 63)))
    assert set(values) == {f.name for f in fields(d.ScenarioConfig)}
    try:
        return d.ScenarioConfig(**values)
    except d.ConfigurationError:
        # radius + (cell - radius) may round above the cell radius
        assume(False)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(cfg=scenario_configs())
def test_config_file_round_trip_every_field(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.cfg")
        d.save_config(cfg, path)
        assert d.load_config(path) == cfg


def test_config_file_comments_and_errors(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# a comment\nnum_d2d_pairs = 5  # trailing\nseed = 3\n")
    cfg = d.load_config(path)
    assert cfg.num_d2d_pairs == 5 and cfg.seed == 3

    path.write_text("frobnicate = 1\n")
    with pytest.raises(d.ConfigurationError):
        d.load_config(path)
    path.write_text("just some words\n")
    with pytest.raises(d.ConfigurationError):
        d.load_config(path)


def test_draw_rx_fallback_is_bounded(rng):
    # a 2 m link cap never clears the 3 m floor, so every draw falls back
    tx = np.zeros(2)
    rx = geo._draw_receivers(rng, tx[None, :], 2.0, 250.0)[0]
    assert 0.0 <= np.linalg.norm(rx - tx) <= 2.0
    # from a transmitter outside the cell the fallback fails as well
    far = np.array([1000.0, 0.0])
    with pytest.raises(d.ConfigurationError, match="400 draws"):
        geo._draw_receivers(rng, far[None, :], 2.0, 250.0)


def loop_draw_rx(rng, tx, max_link, cell_radius, all_tx, rejected=None):
    """Oracle: one receiver by the per-pair loop, written with
    ``rng.uniform`` and ``np.linalg.norm``.  Appends the reason of each
    rejected draw to ``rejected``, if given."""
    rejected = [] if rejected is None else rejected
    for _ in range(geo._MAX_RESAMPLE):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        dist = rng.uniform(0.0, max_link)
        if dist == 0.0:
            rejected.append("zero")
            continue
        rx = tx + dist * np.array([np.cos(phi), np.sin(phi)])
        if np.linalg.norm(rx) > cell_radius:
            rejected.append("cell")
            continue
        if np.min(np.linalg.norm(all_tx - rx, axis=1)) < ch.MIN_DISTANCE:
            rejected.append("floor")
            continue
        return rx
    rejected.append("fallback")
    for _ in range(geo._MAX_RESAMPLE):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        dist = rng.uniform(0.0, max_link)
        rx = tx + dist * np.array([np.cos(phi), np.sin(phi)])
        if np.linalg.norm(rx) <= cell_radius:
            return rx
    raise d.ConfigurationError("no receiver after %d draws" % geo._MAX_RESAMPLE)


def loop_draw_receivers(rng, tx, max_link, cell_radius, rejected=None):
    return np.array([loop_draw_rx(rng, t, max_link, cell_radius, tx, rejected)
                     for t in tx])


STREAM_CONFIGS = {
    "clustered": {},
    "non_clustered": dict(layout=geo.Layout.NON_CLUSTERED),
    # a cluster touching the cell edge: candidates leave the cell
    "cell_edge": dict(cluster_distance_fixed=150.0, cluster_radius_min=100.0,
                      cluster_radius_max=100.0),
    # a link cap of 2.67 m never clears the 3 m floor: every pair falls back
    "fallback": dict(layout=geo.Layout.NON_CLUSTERED, cluster_radius_min=4.0,
                     cluster_radius_max=4.0),
    # a link cap of 3.07 m clears it once in 46 draws: pairs take many
    # tries, and a few run out of them
    "near_floor": dict(layout=geo.Layout.NON_CLUSTERED,
                       cluster_radius_min=4.6, cluster_radius_max=4.6),
}
# rejections the oracle must meet over the 20 placements of seed 1
STREAM_REJECTIONS = {"clustered": {"floor"}, "non_clustered": {"floor"},
                     "cell_edge": {"cell"}, "fallback": {"fallback"},
                     "near_floor": {"floor", "fallback"}}


@pytest.mark.parametrize("seed", [0, 1, 17, 2024])
@pytest.mark.parametrize("name", sorted(STREAM_CONFIGS))
def test_sample_placement_matches_per_pair_loop(name, seed, monkeypatch):
    cfg = d.with_updates(d.ScenarioConfig(), **STREAM_CONFIGS[name])
    rng = np.random.default_rng(seed)
    rejected = []
    with monkeypatch.context() as m:
        m.setattr(geo, "_draw_receivers",
                  lambda *args: loop_draw_receivers(*args, rejected))
        expected = [d.sample_placement(cfg, rng) for _ in range(20)]
    expected_next = rng.random(4)
    if seed == 1:
        # the config's rejections and any fallback are reached
        assert STREAM_REJECTIONS[name] <= set(rejected)
    rng = np.random.default_rng(seed)
    actual = [d.sample_placement(cfg, rng) for _ in range(20)]
    for a, b in zip(actual, expected):
        for arr in ("cu_pos", "d2d_tx_pos", "d2d_rx_pos"):
            assert np.array_equal(getattr(a, arr), getattr(b, arr))
        assert a.cluster_radius == b.cluster_radius
    assert np.array_equal(rng.random(4), expected_next)


class _Scripted:
    """A stand-in generator that returns the given values in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, n):
        out, self.values = self.values[:n], self.values[n:]
        return np.array(out)

    def uniform(self, low, high):
        return low + (high - low) * self.random(1)[0]


@pytest.mark.parametrize("script,reasons,on_tx", [
    # (angle, distance) fractions: a zero distance, then 10 m at pi/2
    ([0.25, 0.0, 0.25, 0.5], ["zero"], False),
    # 200 draws of 2 m fail the floor; the fallback takes a zero distance
    ([0.5, 0.1] * geo._MAX_RESAMPLE + [0.25, 0.0],
     ["floor"] * geo._MAX_RESAMPLE + ["fallback"], True),
], ids=["rejected", "fallback"])
def test_zero_distance_draw_is_redrawn_until_the_fallback(script, reasons,
                                                         on_tx):
    tx = np.array([[10.0, 0.0]])
    rejected = []
    expected = loop_draw_receivers(_Scripted(script), tx, 20.0, 250.0,
                                   rejected)
    assert rejected == reasons
    rng = _Scripted(script)
    rx = geo._draw_receivers(rng, tx, 20.0, 250.0)
    assert np.array_equal(rx, expected) and rng.values == []
    assert np.array_equal(rx, tx) == on_tx
    if not on_tx:
        assert rx[0] == pytest.approx([10.0, 10.0])


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937,
                                           np.random.Philox, np.random.SFC64])
def test_block_receiver_draws_match_loop_for_any_bit_generator(bit_generator):
    cfg = d.with_updates(d.ScenarioConfig(), **STREAM_CONFIGS["cell_edge"])
    tx = d.sample_placement(cfg, np.random.default_rng(3)).d2d_tx_pos
    loop = np.random.Generator(bit_generator(9))
    block = np.random.Generator(bit_generator(9))
    expected = loop_draw_receivers(loop, tx, 60.0, cfg.cell_radius)
    assert np.array_equal(geo._draw_receivers(block, tx, 60.0, cfg.cell_radius),
                          expected)
    assert np.array_equal(block.random(4), loop.random(4))


class _FailingFile:
    """Writes the first half of the text, then fails as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")


def _writers(tables):
    cfg = d.with_updates(d.ScenarioConfig(), num_d2d_pairs=2)
    table = next(iter(tables.values()))
    return {
        "save_table": lambda path: d.save_table(table, path),
        "save_config": lambda path: d.save_config(cfg, path),
    }


@pytest.mark.parametrize("name", ["save_table", "save_config"])
@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o002, 0o664)],
                         ids=["umask022", "umask002"])
def test_writer_gives_the_mode_open_would(name, umask, mode, tables, tmp_path):
    """An atomic write leaves the file with ``0o666 & ~umask``, not the
    temporary file's 0o600."""
    write = _writers(tables)[name]
    old = os.umask(umask)
    try:
        write(tmp_path / "out")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "out").stat().st_mode) == mode


@pytest.mark.parametrize("name", ["save_table", "save_config"])
def test_writer_failing_midway_keeps_previous_file(name, tables, tmp_path,
                                                   monkeypatch):
    write = _writers(tables)[name]
    path = tmp_path / "out"
    write(path)
    before = path.read_bytes()
    assert before
    fdopen = os.fdopen
    with monkeypatch.context() as m:
        m.setattr(os, "fdopen",
                  lambda fd, *a, **k: _FailingFile(fdopen(fd, *a, **k)))
        with pytest.raises(OSError, match="No space"):
            write(path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
