"""Doppler-resilient ground-Rydberg transition and blockade-gate simulator."""

from dualrail.core import (
    AtomLaserConfig,
    AtomSpecies,
    InteractionTable,
    SimulationParams,
    WavevectorSet,
    builtin_configs,
    get_config,
    load_configs,
    maxwell_grid,
    maxwell_weight,
    mhz_to_rad_per_us,
    rad_per_us_to_mhz,
    thermal_rms_speed,
)

__all__ = [
    "AtomLaserConfig",
    "AtomSpecies",
    "InteractionTable",
    "SimulationParams",
    "WavevectorSet",
    "builtin_configs",
    "get_config",
    "load_configs",
    "maxwell_grid",
    "maxwell_weight",
    "mhz_to_rad_per_us",
    "rad_per_us_to_mhz",
    "thermal_rms_speed",
]

__version__ = "0.1.0"
