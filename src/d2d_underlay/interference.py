"""SINR and leakage-interference expressions on top of tables and gains.

Conventions: RB ``r`` occupies subcarriers ``[r*S, r*S + S - 1]`` of a
contiguous band (S = subcarriers per RB); CU transmit power is spread
uniformly over the 12 subcarriers of its RB; noise is per-subcarrier, with
the per-RB aggregate ``S * noise_sc`` used in the CU SINR.

The D2D interference, SINR and cost functions also take a block of
snapshots: gains, D2D powers and RB maps stacked on a leading block axis.
Each snapshot of a block gets the values it would get alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .waveform import WaveformType


@dataclass
class SpectrumMap:
    """RB occupancy: which CU owns each RB and which RB each pair reuses.

    A block of snapshots stacks ``rb_of_cu`` and ``rb_of_d2d`` on a leading
    axis; ``validate`` checks one snapshot's map.
    """

    rb_of_cu: np.ndarray
    num_rbs: int
    subcarriers_per_rb: int
    rb_of_d2d: np.ndarray | None = None

    def validate(self):
        if sorted(self.rb_of_cu.tolist()) != list(range(self.num_rbs)):
            raise ValueError("rb_of_cu must be a bijection over RBs")
        if self.rb_of_d2d is not None:
            rbs = self.rb_of_d2d.tolist()
            if len(set(rbs)) != len(rbs):
                raise ValueError("rb_of_d2d must be injective")
            if rbs and not (0 <= min(rbs) and max(rbs) < self.num_rbs):
                raise ValueError("rb_of_d2d out of range")
        return self

    def with_assignment(self, rb_of_d2d):
        return SpectrumMap(rb_of_cu=self.rb_of_cu, num_rbs=self.num_rbs,
                           subcarriers_per_rb=self.subcarriers_per_rb,
                           rb_of_d2d=np.asarray(rb_of_d2d)).validate()


def random_cu_map(config, rng):
    """Random RB-to-CU bijection (pathloss-only channel makes it arbitrary)."""
    return SpectrumMap(rb_of_cu=rng.permutation(config.num_rbs),
                       num_rbs=config.num_rbs,
                       subcarriers_per_rb=config.subcarriers_per_rb).validate()


@dataclass
class PowerAllocation:
    """Transmit powers: per-subcarrier for D2D pairs, per-RB total for CUs.

    A block of snapshots stacks ``p_d2d`` on a leading axis."""

    p_d2d: np.ndarray     # (pairs, subcarriers per RB), W
    p_cu: np.ndarray      # (CUs,), W per RB

    def validate(self, max_tx_power_w):
        if np.any(self.p_d2d < 0):
            raise ValueError("negative D2D subcarrier power")
        if np.any(self.p_d2d.sum(axis=-1) > max_tx_power_w * (1 + 1e-9)):
            raise ValueError("per-pair power exceeds the cap")
        return self


def uniform_cu_powers(config):
    """Every CU transmits the full power budget over its RB."""
    return np.full(config.num_cus, config.cu_tx_power_w)


def _offset_index(smap, rb_victim, rb_interferer):
    return rb_victim - rb_interferer + smap.num_rbs - 1


def d2d_to_cu_coefficients(gains, table, smap):
    """Leakage at the BS, in W per W, of pair j's subcarrier m into CU i's RB
    as ``c[i, j, m] = h_jB * sum_k I(|k - m|)`` over CU i's subcarriers
    k; the table must be D2D-waveform -> OFDM."""
    kern = table.band_kernels(smap.num_rbs, smap.subcarriers_per_rb)
    d = _offset_index(smap, smap.rb_of_cu[..., :, None],
                      smap.rb_of_d2d[..., None, :])
    return gains.h_d2d_bs[..., None, :, None] * kern.by_interferer[d]


def cu_sinr_all(gains, powers, tables, smap, noise_sc, d2d_kind):
    """Linear SINR of every CU at the BS (per-RB aggregation), with the
    leakage of the pairs that ``smap`` assigns, in waveform ``d2d_kind``."""
    sigma2 = noise_sc * smap.subcarriers_per_rb
    c = d2d_to_cu_coefficients(
        gains, tables[(d2d_kind, WaveformType.OFDM)], smap)
    interference = np.einsum("ijm,jm->i", c, powers.p_d2d)
    return powers.p_cu * gains.h_cu_bs / (sigma2 + interference)


def i_cu_matrix(gains, powers, table, smap):
    """CU-generated interference at every (pair, subcarrier) in W; the table
    must be OFDM -> victim-waveform."""
    kern = table.band_kernels(smap.num_rbs, smap.subcarriers_per_rb)
    # victim subcarrier m of pair j, summed over the CU's interfering RB
    d = _offset_index(smap, smap.rb_of_d2d[..., None, :],
                      smap.rb_of_cu[..., :, None])
    w = kern.by_victim[d]                         # (..., CU, pair, m)
    p_sc = powers.p_cu / smap.subcarriers_per_rb
    return np.einsum("...ij,...i,...ijm->...jm", gains.h_cu_d2d, p_sc, w)


def i_d2d_matrix(gains, powers, table, smap):
    """Inter-D2D interference at every (pair, subcarrier) in W; the table is
    the D2D waveform against itself."""
    kern = table.band_kernels(smap.num_rbs, smap.subcarriers_per_rb)
    num_offsets, s = kern.sub.shape[:2]
    # a pair does not jam itself
    h = np.where(np.eye(gains.h_d2d_d2d.shape[-1], dtype=bool), 0.0,
                 gains.h_d2d_d2d)
    # q[..., j, d, n]: interferer d's power on subcarrier n, at victim j
    q = h[..., None] * powers.p_d2d[..., None, :, :]
    d = _offset_index(smap, smap.rb_of_d2d[..., :, None],
                      smap.rb_of_d2d[..., None, :])
    # sum q by RB offset into grouped[..., j, offset, n], then contract with
    # the offset kernels: interferer subcarrier n -> victim subcarrier m.
    # The product is stacked per snapshot, so every snapshot's matmul has
    # the same shape in a block as alone.
    victims = np.arange(q[..., 0, 0].size).reshape(q.shape[:-2])
    bins = (victims[..., None] * num_offsets + d)[..., None] * s + np.arange(s)
    grouped = np.bincount(bins.ravel(), q.ravel(),
                          minlength=victims.size * num_offsets * s)
    return (grouped.reshape(*victims.shape, num_offsets * s)
            @ kern.sub.reshape(num_offsets * s, s))


def d2d_sinr_matrices(gains, powers, tables, smap, noise_sc, d2d_kind):
    """(actual, predicted) linear SINR arrays of shape (pairs, subcarriers),
    with a leading block axis for a block."""
    i_cu = i_cu_matrix(gains, powers, tables[(WaveformType.OFDM, d2d_kind)], smap)
    i_dd = i_d2d_matrix(gains, powers, tables[(d2d_kind, d2d_kind)], smap)
    num = powers.p_d2d * gains.h_self[..., None]
    actual = num / (noise_sc + i_cu + i_dd)
    predicted = num / (noise_sc + i_cu)
    return actual, predicted


def cu_to_d2d_cost_matrix(gains, powers, table, smap):
    """Interference (W) each pair would receive from all CUs on each RB; the
    assignment cost matrix.  The table must be OFDM -> D2D-waveform."""
    kern = table.band_kernels(smap.num_rbs, smap.subcarriers_per_rb)
    rbs = np.arange(smap.num_rbs)
    d = _offset_index(smap, rbs, smap.rb_of_cu[..., :, None])
    w = kern.band[d]                              # (..., CU, RB)
    p_sc = powers.p_cu / smap.subcarriers_per_rb
    return np.einsum("...ij,...i,...ir->...jr", gains.h_cu_d2d, p_sc, w)

