"""Prototype filters and inter-waveform subcarrier leakage tables.

The central object is the :class:`InterferenceTable`: the mean power that one
subcarrier of an interfering waveform injects into a subcarrier of a victim
waveform at spectral distance ``l``, averaged over the synchronisation offsets
of the two (asynchronous) links.  Tables can be produced two ways:

* ``table_from_psd``   -- integrate the interferer's power spectral density
  over the victim subcarrier band (ignores the victim's receive filtering).
* ``table_from_time_sim`` -- baseband time-domain model of the victim
  demodulator applied to the interferer's signal, averaged over the given
  timing offsets (``build_all_tables`` draws them); symbol randomness is
  averaged in closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sp_fft

from .geometry import atomic_write

# Frequency-sampling design for overlap factor 4: P2 = sqrt(2)/2 and
# P1^2 + P3^2 = 1, giving near-perfect reconstruction.
PHYDYAS_K4_COEFFS = (1.0, 0.971960, math.sqrt(2.0) / 2.0, 0.235147)

DEFAULT_CP_RATIO = 1.0 / 14.0   # normal LTE CP, averaged over the slot
DEFAULT_HALF_SPAN = 36          # 3 RBs; OFDM sidelobes < -40 dB beyond
NUM_VICTIM_SYMBOLS = 16         # victim outputs averaged per timing offset
PSD_PAD_FACTOR = 64             # PSD grid points per subcarrier spacing

PSD = "PSD"
TIME_SIM = "TIME_SIM"


class UnsupportedParameterError(ValueError):
    """A filter/waveform parameter outside the supported design space."""


class TableValidationError(ValueError):
    """A table violates a table invariant; ``save_table`` writes no file."""


class WaveformType(Enum):
    OFDM = "OFDM"
    FBMC_OQAM = "FBMC_OQAM"

    @property
    def cp_ratio(self):
        """CP length over FFT size; FBMC/OQAM carries no CP."""
        return DEFAULT_CP_RATIO if self is WaveformType.OFDM else 0.0


OFDM = WaveformType.OFDM
FBMC = WaveformType.FBMC_OQAM

@dataclass(frozen=True)
class PrototypeFilter:
    """Unit-energy overlap-4 prototype filter for the filter-bank waveform,
    ``4 * fft_size`` taps long."""

    impulse_response: np.ndarray
    fft_size: int


def build_phydyas_filter(overlap_factor, fft_size):
    """Build the overlap-4 frequency-sampling prototype filter.

    The impulse response is the standard cosine superposition of the
    frequency-sampling coefficients, normalised to unit energy.
    """
    if not isinstance(overlap_factor, (int, np.integer)) or overlap_factor != 4:
        raise UnsupportedParameterError(
            "only the integer overlap_factor=4 is supported, got %r"
            % (overlap_factor,))
    if (not isinstance(fft_size, (int, np.integer)) or fft_size < 64
            or fft_size & (fft_size - 1)):
        raise UnsupportedParameterError(
            "fft_size must be an integer power of two >= 64, got %r"
            % (fft_size,))
    K = overlap_factor
    P = PHYDYAS_K4_COEFFS
    n = np.arange(K * fft_size)
    h = np.full(n.shape, P[0])
    for k in range(1, K):
        h = h + 2.0 * (-1) ** k * P[k] * np.cos(2.0 * np.pi * k * n / (K * fft_size))
    h = h / math.sqrt(np.sum(h * h))
    return PrototypeFilter(impulse_response=h, fft_size=fft_size)


@dataclass(frozen=True)
class BandKernels:
    """RB-granular lookup arrays derived from an InterferenceTable."""

    sub: np.ndarray
    by_interferer: np.ndarray
    by_victim: np.ndarray
    band: np.ndarray


@dataclass(eq=False)
class InterferenceTable:
    """Mean leakage coefficients I(l) in W per W of interferer power, from
    an ``interferer`` waveform into a ``victim`` waveform (both
    WaveformTypes; OFDM carries the LTE CP, FBMC/OQAM none).

    ``coeffs`` holds I(0..L), L = ``half_span``; I(-l) = I(l), and leakage
    beyond the half span is truncated to 0.
    """

    interferer: WaveformType
    victim: WaveformType
    coeffs: np.ndarray
    method: str
    _kernel_cache: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def half_span(self):
        return self.coeffs.size - 1

    def validate(self):
        if self.half_span < 1:
            raise TableValidationError("half_span must be >= 1")
        bad = np.flatnonzero(~(np.isfinite(self.coeffs) & (self.coeffs >= 0.0)))
        if bad.size:
            raise TableValidationError("I(l) is negative or not finite at l=%s"
                                       % bad[:5].tolist())
        return self

    def band_kernels(self, num_rbs, subcarriers_per_rb):
        """Per-RB-offset lookup kernels, cached on the table.

        For RB offset ``d`` = victim RB minus interferer RB (stored at index
        ``d + num_rbs - 1``) and RB-local subcarrier indices ``m``
        (interferer) and ``k`` (victim):

        * ``sub[d, m, k]``:          I(|S*d + k - m|),
        * ``by_interferer[d, m]``:   sum over victim subcarriers k,
        * ``by_victim[d, k]``:       sum over interferer subcarriers m,
        * ``band[d]``:               sum over both.
        """
        key = (num_rbs, subcarriers_per_rb)
        hit = self._kernel_cache.get(key)
        if hit is not None:
            return hit
        S = subcarriers_per_rb
        d = np.arange(-(num_rbs - 1), num_rbs)
        m = np.arange(S)
        k = np.arange(S)
        dist = np.abs(S * d[:, None, None] + k[None, None, :] - m[None, :, None])
        flat = np.zeros(max(dist.max() + 1, self.coeffs.size))
        flat[:self.coeffs.size] = self.coeffs
        sub = flat[dist]
        out = BandKernels(sub=sub, by_interferer=sub.sum(axis=2),
                          by_victim=sub.sum(axis=1), band=sub.sum(axis=(1, 2)))
        self._kernel_cache[key] = out
        return out


def _interferer_pulse(kind, filt):
    """Baseband single-subcarrier pulse, its symbol period and symbol variance
    such that the transmitted stream has unit average power per sample."""
    N = filt.fft_size
    if kind is OFDM:
        n_cp = int(round(kind.cp_ratio * N))
        pulse = np.ones(N + n_cp, dtype=complex)
        return pulse, N + n_cp, 1.0
    h = filt.impulse_response
    period = N // 2
    # real OQAM symbols at twice the rate; unit stream power
    var = period / float(np.sum(h * h))
    return h.astype(complex), period, var


def _victim_window(kind, filt):
    """The victim's analysis window at spectral offset 0 plus its output
    period, timing-offset span, real-part factor and useful power.  The
    window at offset l is this one modulated by ``exp(2j*pi*l*u/N)`` at
    sample u."""
    N = filt.fft_size
    if kind is OFDM:
        n_cp = int(round(kind.cp_ratio * N))
        return np.ones(N), N + n_cp, N + n_cp, 1.0, float(N) ** 2
    h = filt.impulse_response
    e_h = float(np.sum(h * h))
    # coherent OQAM gain e_h at symbol variance (N/2)/e_h
    return h, N // 2, N, 0.5, (N / 2.0) * e_h ** 2


def _xcorr_energy(pulse, window, offsets, fft_size):
    """|cross-correlation|^2 of the pulse against the window modulated to
    each spectral offset.

    Entry ``[i, k]`` is ``|sum_u pulse[u] conj(win_i[u + lag])|^2`` with
    ``lag = len(window) - 1 - k`` and ``win_i[u] = window[u] *
    exp(2j*pi*offsets[i]*u/fft_size)``.
    """
    full = pulse.size + window.size - 1
    # n is a multiple of fft_size, so the reversed conjugate window at
    # offset l has the offset-0 spectrum rolled by l * n // fft_size bins,
    # times a unit phase that the squared magnitude drops
    n = fft_size * sp_fft.next_fast_len(math.ceil(full / fft_size))
    spec = sp_fft.fft(np.conj(window[::-1]), n)
    shifts = np.asarray(offsets) * (n // fft_size)
    # row i is the spectrum rolled by shifts[i]: a slice of it doubled
    rows = sliding_window_view(np.concatenate((spec, spec)), n)[-shifts % n]
    rows *= sp_fft.fft(pulse, n)
    c = sp_fft.ifft(rows, overwrite_x=True)
    e = np.abs(c[:, :full])
    return np.square(e, out=e)


def table_from_time_sim(interferer, victim, filt, half_span, timing_offsets):
    """Offset-averaged leakage table from a time-domain receiver model.

    One interferer subcarrier transmits an endless stream of unit-power random
    symbols; the victim demodulator is applied at spectral offsets
    ``l in [-half_span, half_span]`` and averaged over exactly the given
    ``timing_offsets`` (integer samples).  The expectation over the random
    symbols and over the interferer's carrier phase is taken in closed form,
    and the sum over interferer symbols is a fold by their period.  The
    victim's window is transformed once; each offset's spectrum is that one
    rolled by whole bins.

    Averaged over timing offsets, I(l) is the interferer's PSD weighted by
    the victim's window response, times the real-part factor, over the
    useful power:
    ``rho * (var / T) * integral |P(f)|^2 |W_l(f)|^2 df / U``, with P, T and
    var the interferer's pulse, symbol period and symbol variance, W_l the
    victim's analysis window at offset l, rho = 1 (OFDM) or 0.5 (OQAM) and
    U the victim's useful power.
    """
    if half_span < 1:
        raise ValueError("half_span must be >= 1")
    taus = np.asarray(timing_offsets, dtype=int)
    if taus.size == 0:
        raise ValueError("timing_offsets must not be empty")
    if not np.array_equal(taus, np.asarray(timing_offsets)):
        raise ValueError("timing_offsets must be integer samples")
    pulse, t_int, var_int = _interferer_pulse(interferer, filt)
    win, t_vic, _, re_factor, useful = _victim_window(victim, filt)
    ls = np.arange(0, half_span + 1)

    # Interferer symbol s meets victim output v at cross-correlation index
    # len(window) - 1 + tau + v*t_vic - s*t_int, so the sum over all s reads
    # every t_int-th entry: one residue of the energy folded by t_int.
    e = _xcorr_energy(pulse, win, ls, filt.fft_size)
    e = np.pad(e, ((0, 0), (0, -e.shape[1] % t_int)))
    folded = e.reshape(ls.size, -1, t_int).sum(axis=1)
    v = np.arange(NUM_VICTIM_SYMBOLS)
    k = win.size - 1 + taus[:, None] + v[None, :] * t_vic
    hits = np.bincount((k % t_int).ravel(), minlength=t_int)
    acc = folded @ hits
    acc *= re_factor * var_int / (useful * NUM_VICTIM_SYMBOLS * taus.size)
    return InterferenceTable(interferer=interferer, victim=victim,
                             coeffs=acc, method=TIME_SIM).validate()


def table_from_psd(interferer, victim, filt, half_span):
    """Leakage table from band-integration of the interferer's PSD.

    The per-subcarrier PSD is |FFT of the symbol pulse|^2 on a fine grid;
    I(l) integrates it over the victim subcarrier band at offset l, with the
    whole PSD normalised to 1.  The victim's receive filtering is
    deliberately ignored (this is the approximate baseline):
    for FBMC/OQAM at |l| = 1 it is about 33% below the receiver model of
    :func:`table_from_time_sim`.
    """
    N = filt.fft_size
    m = PSD_PAD_FACTOR * N
    psd = np.abs(np.fft.fft(_interferer_pulse(interferer, filt)[0], m)) ** 2
    f = np.fft.fftfreq(m) * N    # frequency in subcarrier spacings
    bands = [psd[(f > l - 0.5) & (f <= l + 0.5)].sum()
             for l in range(half_span + 1)]
    return InterferenceTable(interferer=interferer, victim=victim,
                             coeffs=np.array(bands) / psd.sum(),
                             method=PSD).validate()


def build_all_tables(filt, method=TIME_SIM, num_offsets=400):
    """The four receiver-model tables at ``DEFAULT_HALF_SPAN``, keyed by
    WaveformType pairs in interferer-major order.  Pairing (i, j) averages
    over ``num_offsets`` (at least 100) timing offsets drawn uniformly over
    the victim's offset span from seed ``7 * i + j``.  ``method`` accepts
    only ``TIME_SIM``; it stays for callers that still pass it."""
    if num_offsets < 100:
        raise ValueError("num_offsets must be >= 100")
    if method != TIME_SIM:
        raise ValueError("unknown table method %r; use %r" % (method, TIME_SIM))
    kinds = list(WaveformType)
    tables = {}
    for i, a in enumerate(kinds):
        for j, b in enumerate(kinds):
            taus = np.random.default_rng(7 * i + j).integers(
                0, _victim_window(b, filt)[2], size=num_offsets)
            tables[(a, b)] = table_from_time_sim(a, b, filt, DEFAULT_HALF_SPAN,
                                                 taus)
    return tables


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------

def save_table(table, path):
    """Write a table as CSV: a ``# interferer,victim,method,L`` header, then
    ``l,value`` rows for both signs of ``l``."""
    table.validate()
    lines = ["# %s,%s,%s,%d" % (table.interferer.name, table.victim.name,
                                table.method, table.half_span)]
    for l in range(-table.half_span, table.half_span + 1):
        lines.append("%d,%.17g" % (l, table.coeffs[abs(l)]))
    atomic_write(path, "\n".join(lines) + "\n")
