import math

import numpy as np
import pytest
from scipy import fft as sp_fft

import d2d_underlay as d
from d2d_underlay import waveform as wf


def receiver_filtered_psd(interferer, victim, filt, l, pad_factor=64):
    """I(l) as the interferer's PSD seen through the victim's analysis window.

    ``rho * (var / T) * integral |P(f)|^2 |W_l(f)|^2 df / U`` with P, T and
    var the interferer's pulse, symbol period and symbol variance (unit
    stream power), W_l the victim's window at offset l, rho the real-part
    factor and U the victim's useful power.  The zero-padded FFT grid is
    longer than the full cross-correlation, so the sum is the integral.
    """
    N = filt.fft_size
    h = filt.impulse_response
    e_h = float(np.sum(h * h))
    if interferer is wf.OFDM:
        n_sym = N + int(round(interferer.cp_ratio * N))
        pulse, period, var = np.ones(n_sym), n_sym, 1.0
    else:
        pulse, period, var = h, N // 2, (N / 2.0) / e_h
    if victim is wf.OFDM:
        window = np.exp(2j * np.pi * l * np.arange(N) / N)
        rho, useful = 1.0, float(N) ** 2
    else:
        window = h * np.exp(2j * np.pi * l * np.arange(h.size) / N)
        rho, useful = 0.5, (N / 2.0) * e_h ** 2
    m = pad_factor * N
    weighted = (np.abs(np.fft.fft(pulse, m)) ** 2
                * np.abs(np.fft.fft(window, m)) ** 2)
    return rho * (var / period) * float(weighted.sum()) / m / useful


PAIRINGS = [(a, b) for a in (wf.OFDM, wf.FBMC) for b in (wf.OFDM, wf.FBMC)]


@pytest.mark.parametrize("interferer,victim", PAIRINGS,
                         ids=["%s->%s" % (a.name, b.name) for a, b in PAIRINGS])
def test_time_sim_matches_receiver_filtered_psd(interferer, victim, filt512,
                                                tables):
    N = filt512.fft_size
    oracle = {l: receiver_filtered_psd(interferer, victim, filt512, l)
              for l in range(4)}
    # every integer timing offset over one victim symbol: no sampling error
    # (OFDM into the shorter filter-bank span is off by <= 0.2%)
    span = N + int(round(victim.cp_ratio * N))
    full = wf.table_from_time_sim(interferer, victim, filt512, half_span=3,
                                  timing_offsets=range(span))
    for l in range(4):
        assert full.coeff(l) == pytest.approx(oracle[l], rel=5e-3)
    # the production tables draw 400 random offsets; that only matters for
    # the OFDM interferer, whose seed-to-seed spread at l=1 into an OFDM
    # victim is 3.7% (one standard deviation; 1.7% off at the suite's seed)
    prod = tables[(interferer, victim)]
    if interferer is wf.FBMC:
        ls, rel = range(4), 5e-3
    else:
        ls, rel = range(2), 0.10
    for l in ls:
        assert prod.coeff(l) == pytest.approx(oracle[l], rel=rel)


def loop_time_sim(interferer, victim, filt, half_span, taus):
    """I(0..L) by the direct sum over timing offsets tau, victim outputs v
    and interferer symbols s; the reference for the folded average."""
    pulse, t_int, var_int = wf._interferer_pulse(interferer, filt)
    ls = np.arange(0, half_span + 1)
    win, t_vic, tau_span, re_factor, useful = wf._victim_window(victim, filt)
    n_win = win.size
    V = wf.NUM_VICTIM_SYMBOLS
    v = np.arange(V)
    s_lo = int(np.floor(-(pulse.size - 1 + tau_span) / t_int)) - 1
    s_hi = int(np.ceil((n_win - 1 + tau_span + V * t_vic) / t_int)) + 1
    s = np.arange(s_lo, s_hi + 1)
    e = wf._xcorr_energy(pulse, win, ls, filt.fft_size)
    acc = np.zeros(half_span + 1)
    for tau in taus:
        lags = s[None, :] * t_int - int(tau) - v[:, None] * t_vic
        k = n_win - 1 - lags
        valid = (k >= 0) & (k < e.shape[1])
        idx = np.where(valid, k, 0)
        vals = e[:, idx.ravel()].reshape(ls.size, *idx.shape) * valid[None]
        acc += vals.sum(axis=(1, 2)) / V
    acc *= re_factor * var_int / (useful * len(taus))
    return acc


@pytest.mark.parametrize("offsets", ["seeded", "explicit"])
@pytest.mark.parametrize("fft_size", [128, 256])
@pytest.mark.parametrize("interferer,victim", PAIRINGS,
                         ids=["%s->%s" % (a.name, b.name) for a, b in PAIRINGS])
def test_time_sim_fold_matches_offset_loop(interferer, victim, fft_size,
                                           offsets):
    filt = d.build_phydyas_filter(4, fft_size)
    if offsets == "seeded":
        tau_span = wf._victim_window(victim, filt)[2]
        taus = np.random.default_rng(11).integers(0, tau_span, size=150)
    else:
        taus = [0, 1, 7, fft_size // 3, fft_size - 1]
    table = wf.table_from_time_sim(interferer, victim, filt, 8, taus)
    ref = loop_time_sim(interferer, victim, filt, 8, taus)
    np.testing.assert_allclose(table.coeffs, ref, rtol=1e-12, atol=0)


def modulated_windows(window, offsets, fft_size):
    """The window at each spectral offset l: ``w0 * exp(2j*pi*l*u/N)``, in
    extended precision (``np.clongdouble``)."""
    u = np.arange(window.size)
    pi = 4 * np.arctan(np.longdouble(1))
    phase = 2 * pi * np.asarray(offsets)[:, None] * u[None, :] / fft_size
    return window.astype(np.clongdouble)[None, :] * np.exp(1j * phase)


def direct_xcorr_energy(pulse, windows):
    """``|sum_u pulse[u] conj(win_i[u + lag])|^2`` summed term by term, at
    column ``k`` for ``lag = len(win) - 1 - k``, over every overlapping lag,
    in extended precision: double precision alone is off by about 1e-12 of
    a row's maximum in the stopband."""
    pulse = pulse.astype(np.clongdouble)
    n_win = windows.shape[1]
    out = np.empty((windows.shape[0], pulse.size + n_win - 1), np.longdouble)
    for k in range(out.shape[1]):
        lag = n_win - 1 - k
        u = np.arange(max(0, -lag), min(pulse.size, n_win - lag))
        c = (pulse[u][None, :] * np.conj(windows[:, u + lag])).sum(axis=1)
        out[:, k] = np.abs(c) ** 2
    return out


@pytest.mark.parametrize("fft_size", [64, 128])
@pytest.mark.parametrize("interferer,victim", PAIRINGS,
                         ids=["%s->%s" % (a.name, b.name) for a, b in PAIRINGS])
def test_xcorr_energy_matches_direct_sum(interferer, victim, fft_size):
    filt = d.build_phydyas_filter(4, fft_size)
    pulse = wf._interferer_pulse(interferer, filt)[0]
    window = wf._victim_window(victim, filt)[0]
    offsets = [-2, 0, 1, 5]
    e = wf._xcorr_energy(pulse, window, offsets, fft_size)
    ref = direct_xcorr_energy(pulse,
                              modulated_windows(window, offsets, fft_size))
    assert e.shape == ref.shape
    scale = ref.max(axis=1, keepdims=True)
    assert np.all(np.abs(e - ref) <= 1e-12 * scale)


def fft_xcorr_energy(pulse, windows):
    """``direct_xcorr_energy`` as one FFT correlation per window, each
    window modulated and transformed on its own."""
    full = pulse.size + windows.shape[1] - 1
    n = sp_fft.next_fast_len(full, False)
    spec = sp_fft.fft(np.conj(windows)[:, ::-1], n) * sp_fft.fft(pulse, n)
    return np.abs(sp_fft.ifft(spec)[:, :full]) ** 2


@pytest.mark.parametrize("interferer,victim", PAIRINGS,
                         ids=["%s->%s" % (a.name, b.name) for a, b in PAIRINGS])
def test_rolled_spectrum_matches_modulated_windows(interferer, victim,
                                                   filt512):
    """At production size, each offset's row of the one rolled window
    spectrum matches that offset's window modulated and correlated alone."""
    N = filt512.fft_size
    pulse = wf._interferer_pulse(interferer, filt512)[0]
    window = wf._victim_window(victim, filt512)[0]
    offsets = np.arange(wf.DEFAULT_HALF_SPAN + 1)
    e = wf._xcorr_energy(pulse, window, offsets, N)
    ref = fft_xcorr_energy(pulse, modulated_windows(window, offsets, N))
    assert e.shape == ref.shape
    assert np.all(np.abs(e - ref) <= 1e-12 * ref[0].max())


def test_phydyas_coefficients():
    p = wf.PHYDYAS_K4_COEFFS
    assert p[0] == 1.0
    assert p[1] == pytest.approx(0.971960)
    assert p[2] == pytest.approx(math.sqrt(2) / 2)
    assert p[3] == pytest.approx(0.235147)
    # near-perfect-reconstruction constraint of the design
    assert p[1] ** 2 + p[3] ** 2 == pytest.approx(1.0, abs=1e-4)


def test_phydyas_unit_energy():
    f = d.build_phydyas_filter(4, 1024)
    assert np.sum(f.impulse_response ** 2) == pytest.approx(1.0, abs=1e-12)
    assert f.impulse_response.size == 4 * 1024


def test_phydyas_rejects_unsupported_parameters():
    with pytest.raises(d.UnsupportedParameterError):
        d.build_phydyas_filter(3, 1024)
    with pytest.raises(d.UnsupportedParameterError):
        d.build_phydyas_filter(4, 100)
    with pytest.raises(d.UnsupportedParameterError):
        d.build_phydyas_filter(4, 32)
    with pytest.raises(d.UnsupportedParameterError, match="got 4.0"):
        d.build_phydyas_filter(4.0, 512)
    with pytest.raises(d.UnsupportedParameterError, match="got 512.0"):
        d.build_phydyas_filter(4, 512.0)


def test_waveform_kind_invariants():
    assert wf.OFDM.cp_ratio == wf.DEFAULT_CP_RATIO
    assert wf.FBMC.cp_ratio == 0.0
    assert d.parse_waveform(" OFDM ") == wf.OFDM
    assert d.parse_waveform("fbmc") == wf.FBMC
    with pytest.raises(d.UnsupportedParameterError):
        d.parse_waveform("gfdm")


def test_psd_ofdm_sidelobes_decay(tables_psd):
    t = tables_psd[(wf.WaveformType.OFDM, wf.WaveformType.OFDM)]
    vals = [t.coeff(l) for l in range(1, t.half_span + 1)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_psd_fbmc_stopband(tables_psd):
    t = tables_psd[(wf.WaveformType.FBMC_OQAM, wf.WaveformType.FBMC_OQAM)]
    for l in range(2, t.half_span + 1):
        assert t.coeff(l) < 1e-4 * t.coeff(0)


@pytest.mark.parametrize("method", ["psd", "time"])
def test_tables_conserve_power(method, tables, tables_psd):
    group = tables if method == "time" else tables_psd
    for t in group.values():
        assert t.coeffs[0] + 2.0 * t.coeffs[1:].sum() <= 1.0 + 1e-6


def test_time_sim_aligned_ofdm_delivers_full_power(filt512):
    t = wf.table_from_time_sim(wf.OFDM, wf.OFDM, filt512, half_span=4,
                               timing_offsets=[0])
    assert t.coeff(0) == pytest.approx(1.0, rel=0.02)


def test_time_sim_ofdm_ratio_matches_offset_average_oracle(filt512):
    """I(1)/I(0) against a direct windowed-DFT derivation.

    A victim DFT window at timing offset tau covers the tails of two
    interferer symbols (lengths a and N_int - ...); with independent unit
    symbols the mean received power is the sum of squared partial DFTs of
    the complex exponential at offset l.
    """
    N = filt512.fft_size
    n_cp = int(round(wf.OFDM.cp_ratio * N))
    n_int = N + n_cp

    def partial_power(l, length):
        n = np.arange(length)
        return np.abs(np.exp(2j * np.pi * l * n / N).sum()) ** 2

    def mean_power(l):
        # tau uniform over one interferer symbol; window split a | N - a
        acc = 0.0
        for tau in range(n_int):
            a = min(n_int - tau, N)
            acc += partial_power(l, a) + (partial_power(l, N - a) if a < N else 0.0)
        return acc / n_int

    oracle_ratio = mean_power(1) / mean_power(0)
    taus = list(range(0, n_int, 7))
    t = wf.table_from_time_sim(wf.OFDM, wf.OFDM, filt512, half_span=2,
                               timing_offsets=taus)
    assert t.coeff(1) / t.coeff(0) == pytest.approx(oracle_ratio, rel=0.02)


def test_build_all_tables_draws_offsets_per_pairing(filt):
    """Pairing (i, j) averages over the offsets that seed ``7 * i + j``
    draws over the victim's offset span, and nothing else."""
    tables = wf.build_all_tables(filt, num_offsets=150)
    kinds = list(wf.WaveformType)
    assert list(tables) == [(a, b) for a in kinds for b in kinds]
    for (a, b), table in tables.items():
        seed = 7 * kinds.index(a) + kinds.index(b)
        tau_span = wf._victim_window(b, filt)[2]
        taus = np.random.default_rng(seed).integers(0, tau_span, size=150)
        ref = wf.table_from_time_sim(a, b, filt, wf.DEFAULT_HALF_SPAN, taus)
        assert np.array_equal(table.coeffs, ref.coeffs)


def test_build_all_tables_rejects_small_sample(filt):
    with pytest.raises(ValueError, match="num_offsets"):
        wf.build_all_tables(filt, num_offsets=99)


def test_table_symmetry(tables, tables_psd):
    for t in list(tables.values()) + list(tables_psd.values()):
        for l in range(1, t.half_span + 1):
            assert abs(t.coeff(l) - t.coeff(-l)) < 1e-9


def test_fbmc_vs_ofdm_localization(tables):
    """The filter bank confines leakage to the adjacent subcarrier; OFDM
    sidelobes spread across the whole span."""
    fb = tables[(wf.WaveformType.FBMC_OQAM, wf.WaveformType.FBMC_OQAM)]
    of = tables[(wf.WaveformType.OFDM, wf.WaveformType.OFDM)]
    fb_far = sum(fb.coeff(l) for l in range(2, fb.half_span + 1))
    of_far = sum(of.coeff(l) for l in range(2, of.half_span + 1))
    assert fb_far < 1e-3 * of_far
    # cross table only slightly below the OFDM-only adjacent leakage
    cross = tables[(wf.WaveformType.OFDM, wf.WaveformType.FBMC_OQAM)]
    ratio = cross.coeff(1) / of.coeff(1)
    assert 0.3 <= ratio <= 1.0


def test_band_kernels_match_direct_sum(tables):
    t = tables[(wf.WaveformType.FBMC_OQAM, wf.WaveformType.FBMC_OQAM)]
    num_rbs, S = 3, 12
    kern = t.band_kernels(num_rbs, S)
    for d_rb in (-2, -1, 0, 1, 2):
        idx = d_rb + num_rbs - 1
        for m in range(S):
            for k in range(S):
                assert kern.sub[idx, m, k] == pytest.approx(
                    t.coeff(abs(S * d_rb + k - m)), abs=0)
    assert np.allclose(kern.by_interferer, kern.sub.sum(axis=2))
    assert np.allclose(kern.by_victim, kern.sub.sum(axis=1))
    assert np.allclose(kern.band, kern.sub.sum(axis=(1, 2)))


def test_save_load_round_trip(tmp_path, tables):
    """The CSV ``save_table`` writes carries the table's header fields and
    reads back bit-equal with ``np.loadtxt``."""
    t = tables[(wf.WaveformType.OFDM, wf.WaveformType.FBMC_OQAM)]
    path = tmp_path / "t.csv"
    d.save_table(t, path)
    a, b, method, L = path.read_text().splitlines()[0].lstrip("# ").split(",")
    assert wf.WaveformType[a] == t.interferer
    assert wf.WaveformType[b] == t.victim
    assert method == t.method
    assert int(L) == t.half_span
    rows = np.loadtxt(path, delimiter=",", comments="#")
    span = np.arange(-t.half_span, t.half_span + 1)
    assert np.array_equal(rows[:, 0], span)
    assert np.array_equal(rows[:, 1], t.coeffs[np.abs(span)])
    assert np.array_equal(rows[t.half_span:, 1], t.coeffs)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.1])
def test_save_rejects_invalid_coefficient(tmp_path, value):
    coeffs = np.array([0.5, 0.1, 0.01])
    coeffs[2] = value
    table = wf.InterferenceTable(wf.OFDM, wf.OFDM, coeffs)
    with pytest.raises(d.TableValidationError, match="l=\\[2\\]"):
        d.save_table(table, tmp_path / "t.csv")
    assert list(tmp_path.iterdir()) == []
