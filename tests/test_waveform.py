import math

import numpy as np
import pytest

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
    if interferer.kind is wf.WaveformType.OFDM:
        n_sym = N + int(round(interferer.cp_ratio * N))
        pulse, period, var = np.ones(n_sym), n_sym, 1.0
    else:
        pulse, period, var = h, N // 2, (N / 2.0) / e_h
    if victim.kind is wf.WaveformType.OFDM:
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
                                  num_offsets=0, seed=0,
                                  timing_offsets=range(span))
    for l in range(4):
        assert full.coeff(l) == pytest.approx(oracle[l], rel=5e-3)
    # the production tables draw 400 random offsets; that only matters for
    # the OFDM interferer, whose seed-to-seed spread at l=1 into an OFDM
    # victim is 3.7% (one standard deviation; 1.7% off at the suite's seed)
    prod = tables[(interferer.kind, victim.kind)]
    if interferer.kind is wf.WaveformType.FBMC_OQAM:
        ls, rel = range(4), 5e-3
    else:
        ls, rel = range(2), 0.10
    for l in ls:
        assert prod.coeff(l) == pytest.approx(oracle[l], rel=rel)


def test_phydyas_coefficients():
    f = d.build_phydyas_filter(4, 1024)
    assert f.freq_coeffs[0] == 1.0
    assert f.freq_coeffs[1] == pytest.approx(0.971960)
    assert f.freq_coeffs[2] == pytest.approx(math.sqrt(2) / 2)
    assert f.freq_coeffs[3] == pytest.approx(0.235147)
    # near-perfect-reconstruction constraint of the design
    assert f.freq_coeffs[1] ** 2 + f.freq_coeffs[3] ** 2 == pytest.approx(1.0, abs=1e-4)


def test_phydyas_unit_energy():
    f = d.build_phydyas_filter(4, 1024)
    assert np.sum(f.impulse_response ** 2) == pytest.approx(1.0, abs=1e-12)
    assert f.length == 4 * 1024


def test_phydyas_rejects_unsupported_parameters():
    with pytest.raises(d.UnsupportedParameterError):
        d.build_phydyas_filter(3, 1024)
    with pytest.raises(d.UnsupportedParameterError):
        d.build_phydyas_filter(4, 100)
    with pytest.raises(d.UnsupportedParameterError):
        d.build_phydyas_filter(4, 32)


def test_waveform_kind_invariants():
    with pytest.raises(d.UnsupportedParameterError):
        wf.WaveformKind(wf.WaveformType.OFDM, cp_ratio=0.3)
    with pytest.raises(d.UnsupportedParameterError):
        wf.WaveformKind(wf.WaveformType.FBMC_OQAM, cp_ratio=0.1)
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
        assert sum(t.coeffs.values()) <= 1.0 + 1e-6


def test_time_sim_aligned_ofdm_delivers_full_power(filt512):
    t = wf.table_from_time_sim(wf.OFDM, wf.OFDM, filt512, half_span=4,
                               num_offsets=1, seed=0, timing_offsets=[0])
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
                               num_offsets=len(taus), seed=0,
                               timing_offsets=taus)
    assert t.coeff(1) / t.coeff(0) == pytest.approx(oracle_ratio, rel=0.02)


def test_time_sim_determinism(filt):
    a = wf.table_from_time_sim(wf.FBMC, wf.FBMC, filt, 6, 150, seed=9)
    b = wf.table_from_time_sim(wf.FBMC, wf.FBMC, filt, 6, 150, seed=9)
    assert a.coeffs == b.coeffs


def test_time_sim_rejects_small_sample(filt):
    with pytest.raises(ValueError):
        wf.table_from_time_sim(wf.FBMC, wf.FBMC, filt, 6, 99, seed=0)


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
    t = tables[(wf.WaveformType.OFDM, wf.WaveformType.FBMC_OQAM)]
    path = tmp_path / "t.csv"
    d.save_table(t, path)
    back = d.load_table(path)
    assert back.coeffs == t.coeffs
    assert back.interferer == t.interferer
    assert back.victim == t.victim
    assert back.method == t.method
    assert back.half_span == t.half_span
    assert back.reference_power == t.reference_power


def test_load_rejects_gap(tmp_path):
    lines = ["# OFDM,OFDM,PSD,4,1"]
    for l in range(-4, 5):
        if l == 3:
            continue
        lines.append("%d,0.01" % l)
    path = tmp_path / "gap.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(d.TableValidationError):
        d.load_table(path)


def test_load_rejects_negative_coefficient(tmp_path):
    lines = ["# OFDM,OFDM,PSD,2,1"]
    for l in range(-2, 3):
        lines.append("%d,%s" % (l, "-0.1" if l == 2 else "0.1"))
    path = tmp_path / "neg.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(d.TableValidationError):
        d.load_table(path)


def test_load_parse_error_names_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# OFDM,OFDM,PSD,2,1\n-2,0.1\nnope\n")
    with pytest.raises(d.TableFormatError) as err:
        d.load_table(path)
    assert err.value.line == 3


def test_load_rejects_missing_header(tmp_path):
    path = tmp_path / "nohead.csv"
    path.write_text("0,1.0\n")
    with pytest.raises(d.TableFormatError):
        d.load_table(path)
