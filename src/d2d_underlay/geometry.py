"""Monte Carlo topologies: cell, cellular users and clustered D2D pairs."""
from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

from .channel import MIN_DISTANCE

_MAX_RESAMPLE = 200


class ConfigurationError(ValueError):
    """Scenario configuration violates a geometric or structural constraint."""


def db_to_linear(x):
    """10^(x/10), or inf where that overflows a float."""
    try:
        return 10.0 ** (x / 10.0)
    except OverflowError:
        return math.inf


class Layout(Enum):
    CLUSTERED = "CLUSTERED"
    NON_CLUSTERED = "NON_CLUSTERED"


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulation scenario.

    Distances in metres, frequencies in Hz, powers in dBm, SINR in dB.
    Defaults follow an LTE-like 500 m inter-site-distance macro cell.
    """

    cell_radius: float = 250.0
    carrier_freq: float = 700e6
    subcarrier_spacing: float = 15e3
    num_rbs: int = 15
    subcarriers_per_rb: int = 12
    num_d2d_pairs: int = 10
    layout: Layout = Layout.CLUSTERED
    cluster_radius_min: float = 50.0
    cluster_radius_max: float = 100.0
    cluster_radius_fixed: float | None = None
    cluster_distance_fixed: float | None = None
    d2d_max_link_factor: float = 2.0 / 3.0
    cu_min_sinr: float = 10.0
    noise_per_subcarrier: float = -127.0
    max_tx_power: float = 24.0
    cu_tx_power: float = 24.0
    iterations: int = 2000
    seed: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ConfigurationError("%s must be finite, got %r"
                                         % (f.name, value))
        for name, linear in (("cu_min_sinr", self.cu_min_sinr_linear),
                             ("noise_per_subcarrier", self.noise_per_subcarrier_w),
                             ("max_tx_power", self.max_tx_power_w),
                             ("cu_tx_power", self.cu_tx_power_w)):
            if not 0.0 < linear < math.inf:
                raise ConfigurationError(
                    "%s must convert to a finite, positive linear value, "
                    "got %r" % (name, getattr(self, name)))
        if self.num_d2d_pairs > self.num_rbs:
            raise ConfigurationError(
                "num_d2d_pairs (%d) must not exceed num_rbs (%d): the RB map "
                "must be injective" % (self.num_d2d_pairs, self.num_rbs))
        if self.cluster_radius_min > self.cluster_radius_max:
            raise ConfigurationError(
                "cluster_radius_min (%r) must not exceed cluster_radius_max "
                "(%r)" % (self.cluster_radius_min, self.cluster_radius_max))
        for name in ("cell_radius", "carrier_freq", "subcarrier_spacing",
                     "cluster_radius_min", "cluster_radius_max",
                     "d2d_max_link_factor", "cluster_radius_fixed"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError("%s must be positive, got %r"
                                         % (name, value))
        for name, low in (("num_rbs", 1), ("subcarriers_per_rb", 1),
                          ("num_d2d_pairs", 1), ("iterations", 1),
                          ("seed", 0)):
            value = getattr(self, name)
            if value < low:
                raise ConfigurationError("%s must be >= %d, got %d"
                                         % (name, low, value))
        if self.cluster_distance_fixed is not None and self.cluster_distance_fixed < 0:
            raise ConfigurationError("cluster_distance_fixed must be >= 0, "
                                     "got %r" % self.cluster_distance_fixed)
        if (self.layout is Layout.NON_CLUSTERED
                and self.cluster_distance_fixed is not None):
            raise ConfigurationError(
                "cluster_distance_fixed (%r) places a cluster, but layout is "
                "NON_CLUSTERED" % self.cluster_distance_fixed)
        if self.layout is Layout.CLUSTERED:
            radius = self.cluster_radius_bound
            distance = self.cluster_distance_fixed
            if radius + (distance or 0.0) > self.cell_radius:
                which = ("cluster_radius_max" if self.cluster_radius_fixed is None
                         else "cluster_radius_fixed")
                where = ("" if distance is None else
                         " at distance %.1f m (cluster_distance_fixed)" % distance)
                raise ConfigurationError(
                    "cluster of radius %.1f m (%s)%s does not fit in "
                    "cell_radius %.1f m" % (radius, which, where,
                                            self.cell_radius))

    @property
    def num_cus(self):
        """One CU per RB: the D2D pairs underlay a fully loaded uplink."""
        return self.num_rbs

    @property
    def cu_min_sinr_linear(self):
        return db_to_linear(self.cu_min_sinr)

    @property
    def noise_per_subcarrier_w(self):
        return db_to_linear(self.noise_per_subcarrier - 30.0)

    @property
    def max_tx_power_w(self):
        return db_to_linear(self.max_tx_power - 30.0)

    @property
    def cu_tx_power_w(self):
        return db_to_linear(self.cu_tx_power - 30.0)

    @property
    def cluster_radius_bound(self):
        """The fixed cluster radius, else the top of the random range."""
        return (self.cluster_radius_max if self.cluster_radius_fixed is None
                else self.cluster_radius_fixed)


@dataclass
class NodePlacement:
    """One sampled topology; positions are (x, y) in metres, BS at origin.
    A block of topologies stacks the position arrays on a leading axis."""

    cu_pos: np.ndarray
    d2d_tx_pos: np.ndarray
    d2d_rx_pos: np.ndarray
    cluster_centre: np.ndarray | None = None
    cluster_radius: float | None = None


def _uniform_disc(rng, radius, size, centre=(0.0, 0.0)):
    r = radius * np.sqrt(rng.uniform(size=size))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=size)
    return np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1) + np.asarray(centre)


def _draw_receivers(rng, tx, max_link, cell_radius):
    """Each transmitter's receiver, pair by pair, at uniform angle and
    uniform distance in [0, max_link), resampled to stay in the cell.  A
    pair's first _MAX_RESAMPLE draws must also clear the 3 m floor from every
    transmitter, its own included (so d = 0 is rejected); the next
    _MAX_RESAMPLE need only the cell, and the channel clamps distances."""
    pts = tx.tolist()
    max_link = float(max_link)
    rx = np.empty_like(tx)
    for i, (x0, y0) in enumerate(pts):
        for tries in range(2 * _MAX_RESAMPLE):
            u, v = rng.random(2).tolist()
            phi, d = 2.0 * np.pi * u, max_link * v
            x = x0 + d * float(np.cos(phi))
            y = y0 + d * float(np.sin(phi))
            if math.sqrt(x * x + y * y) <= cell_radius and (
                    tries >= _MAX_RESAMPLE or min(
                        math.sqrt((a - x) * (a - x) + (b - y) * (b - y))
                        for a, b in pts) >= MIN_DISTANCE):
                rx[i] = x, y
                break
        else:
            raise ConfigurationError(
                "no receiver within %.1f m of the transmitter at (%.1f, %.1f) "
                "m lies in the cell after %d draws"
                % (max_link, x0, y0, 2 * _MAX_RESAMPLE))
    return rx


def sample_placement(config, rng):
    """Draw one topology.  A cluster's radius is fixed or uniform in
    [cluster_radius_min, cluster_radius_max]; its centre is uniform over the
    disc that keeps it in the cell, or at the fixed distance from the BS at
    a uniform angle (``ScenarioConfig`` checks that either fits).  Both
    layouts then draw CUs, transmitters and receivers alike."""
    centre = radius = None
    if config.layout is Layout.CLUSTERED:
        radius = config.cluster_radius_fixed
        if radius is None:
            radius = rng.uniform(config.cluster_radius_min,
                                 config.cluster_radius_max)
        if config.cluster_distance_fixed is None:
            centre = _uniform_disc(rng, config.cell_radius - radius, 1)[0]
        else:
            phi = rng.uniform(0.0, 2.0 * np.pi)
            centre = config.cluster_distance_fixed * np.array([np.cos(phi),
                                                               np.sin(phi)])
    cu_pos = _uniform_disc(rng, config.cell_radius, size=config.num_cus)
    if centre is None:
        tx = _uniform_disc(rng, config.cell_radius, size=config.num_d2d_pairs)
    else:
        tx = _uniform_disc(rng, radius, centre=centre, size=config.num_d2d_pairs)
    max_link = config.d2d_max_link_factor * (
        config.cluster_radius_bound if radius is None else radius)
    rx = _draw_receivers(rng, tx, max_link, config.cell_radius)
    return NodePlacement(cu_pos=cu_pos, d2d_tx_pos=tx, d2d_rx_pos=rx,
                         cluster_centre=centre, cluster_radius=radius)


# ---------------------------------------------------------------------------
# flat key-value config files
# ---------------------------------------------------------------------------

_DEFAULTS = {f.name: f.default for f in fields(ScenarioConfig)}


def _coerce(name, text):
    """Parse ``text`` as the type of the field's default; a ``None``
    default means a float or ``none``."""
    text = text.strip()
    default = _DEFAULTS[name]
    if isinstance(default, Layout):
        try:
            return Layout[text.upper()]
        except KeyError:
            raise ConfigurationError("unknown layout %r" % text)
    if default is None:
        return None if text.lower() in ("", "none") else float(text)
    return type(default)(text)


def load_config(path):
    """Read a ``key = value`` config file (# comments) into a ScenarioConfig;
    each key may appear once."""
    values = {}
    first_line = {}
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            # an unreadable file, as the CLI counts it (exit 3)
            raise OSError("%s: not UTF-8 text: %s" % (path, exc)) from None
        for ln, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(
                    "%s:%d: expected 'key = value', got %r" % (path, ln, raw.strip()))
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _DEFAULTS:
                raise ConfigurationError("%s:%d: unknown key %r" % (path, ln, key))
            if key in first_line:
                raise ConfigurationError("%s:%d: key %r repeats line %d"
                                         % (path, ln, key, first_line[key]))
            first_line[key] = ln
            try:
                values[key] = _coerce(key, val)
            except ValueError as exc:
                raise ConfigurationError("%s:%d: %s: %s" % (path, ln, key, exc))
    return ScenarioConfig(**values)


def save_config(config, path):
    lines = []
    for f in fields(ScenarioConfig):
        val = getattr(config, f.name)
        if isinstance(val, Layout):
            val = val.value
        lines.append("%s = %s" % (f.name, val))
    atomic_write(path, "\n".join(lines) + "\n")


def with_updates(config, **changes):
    """Copy of the config with fields replaced (and re-validated)."""
    return replace(config, **changes)


def atomic_write(path, text):
    """Write text to a temporary file beside ``path``, then rename it over
    ``path``; on any failure the old file is left as it was."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give it the mode open() would.
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
