"""Distance-based urban micro-cell channel gains with probabilistic LOS.

Pure pathloss: no shadowing and no fast fading.  Every directed link draws
its own LOS state, so reciprocity is not assumed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BS_HEIGHT = 10.0        # m
MIN_DISTANCE = 3.0      # m; the placement floor; shorter links are clamped


@dataclass
class ChannelGains:
    """Linear power gains for every useful and interference channel.

    ``h_cu_d2d[i, j]`` is CU i -> D2D receiver j; ``h_d2d_d2d[j, d]`` is D2D
    transmitter d -> D2D receiver j (diagonal = own link ``h_self``).  The
    gains of a block of snapshots carry a leading block axis on every
    array; indexing the block gives one snapshot's gains, or a sub-block's.
    """

    h_cu_bs: np.ndarray
    h_d2d_bs: np.ndarray
    h_cu_d2d: np.ndarray
    h_d2d_d2d: np.ndarray

    def __getitem__(self, index):
        return ChannelGains(**{name: value[index]
                               for name, value in vars(self).items()})

    @property
    def h_self(self):
        return np.diagonal(self.h_d2d_d2d, axis1=-2, axis2=-1)


def los_probability(d):
    """Probability of line of sight at distance d (metres)."""
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distance must be positive")
    p = np.minimum(18.0 / d, 1.0) * (1.0 - np.exp(-d / 36.0)) + np.exp(-d / 36.0)
    return np.clip(p, 0.0, 1.0)


def pathloss_db(d, fc, los):
    """Urban micro-cell single-slope pathloss in dB.

    LOS:  22.7 log10(d) + 41.0 + 20 log10(fc_GHz / 5)
    NLOS: (44.9 - 6.55 log10(h_BS)) log10(d) + 16.33 + 5.83 log10(h_BS)
          + 23 log10(fc_GHz / 5)       with h_BS = 10 m.
    """
    d = np.asarray(d, dtype=float)
    fc_ghz = fc / 1e9
    los_pl = 22.7 * np.log10(d) + 41.0 + 20.0 * np.log10(fc_ghz / 5.0)
    nlos_pl = ((44.9 - 6.55 * np.log10(BS_HEIGHT)) * np.log10(d)
               + 16.33 + 5.83 * np.log10(BS_HEIGHT)
               + 23.0 * np.log10(fc_ghz / 5.0))
    pl = np.where(los, los_pl, nlos_pl)
    return np.maximum(pl, 0.0)


def _link_gain(dist, fc, u):
    """Gains of links at ``dist``; a link is LOS when its uniform draw ``u``
    falls below its LOS probability."""
    d = np.maximum(dist, MIN_DISTANCE)
    return 10.0 ** (-pathloss_db(d, fc, u < los_probability(d)) / 10.0)


def gains_from_placement(placement, config, rng):
    """Draw LOS states and compute all link gains for one topology, or for
    a block of topologies stacked on a leading axis with ``rng`` one
    generator per snapshot.

    Each snapshot's LOS states are one block of uniform draws from its
    generator, in a fixed order: CU->BS, D2D->BS, CU->D2D (row-major over
    [i, j]), then D2D->D2D (row-major over [j, d]).  This takes the same
    stream as one draw per link group in that order, so results are
    reproducible for a given generator state, and every snapshot of a block
    gets the gains it would get alone.
    """
    cu, tx, rx = placement.cu_pos, placement.d2d_tx_pos, placement.d2d_rx_pos
    lead = cu.shape[:-2]
    d_cu_bs = np.linalg.norm(cu, axis=-1)
    d_d2d_bs = np.linalg.norm(tx, axis=-1)
    # [i, j]: CU i to receiver j
    d_cu_d2d = np.linalg.norm(cu[..., :, None, :] - rx[..., None, :, :],
                              axis=-1)
    # [j, d]: transmitter d to receiver j
    d_d2d_d2d = np.linalg.norm(tx[..., None, :, :] - rx[..., :, None, :],
                               axis=-1)

    groups = (d_cu_bs, d_d2d_bs, d_cu_d2d, d_d2d_d2d)
    dist = np.concatenate([d.reshape(lead + (-1,)) for d in groups], axis=-1)
    u = np.stack([r.uniform(size=dist.shape[-1])
                  for r in (rng if lead else [rng])]).reshape(dist.shape)
    gain = _link_gain(dist, config.carrier_freq, u)
    h, start = [], 0
    for d in groups:
        end = start + math.prod(d.shape[len(lead):])
        h.append(gain[..., start:end].reshape(d.shape))
        start = end
    return ChannelGains(*h)
