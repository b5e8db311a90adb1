"""System-level Monte Carlo simulator of D2D pairs underlaying an OFDMA uplink.

The package models the coexistence of asynchronous device-to-device links
(OFDM or FBMC/OQAM) with synchronized cellular uplink users: spectral leakage
tables, clustered topologies, pathloss channels, SINR bookkeeping, Hungarian
RB assignment, water-filling power control and campaign/sweep drivers.
"""

from .waveform import (
    WaveformType, build_phydyas_filter, table_from_psd, build_all_tables,
    save_table, UnsupportedParameterError, TableValidationError,
)
from .geometry import (
    ScenarioConfig, NodePlacement, Layout, ConfigurationError,
    sample_placement, load_config, save_config, with_updates,
)
from .channel import los_probability, pathloss_db, gains_from_placement
from .interference import (
    PowerAllocation, random_cu_map, uniform_cu_powers, cu_sinr_all,
    d2d_sinr_matrices, cu_to_d2d_cost_matrix,
)
from .allocation import hungarian, power_loading
from .simulation import (
    EmptyReportError, rate_from_sinr, run_iteration, run_campaign, sweep,
    write_samples_csv, write_cdf_csv, write_sweep_csv, write_gnuplot_cdf,
    write_gnuplot_sweep,
)

__version__ = "0.1.0"
