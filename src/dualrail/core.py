"""Unit conventions, atomic constants, laser presets and velocity statistics.

Internal unit system
--------------------
Time is measured in microseconds and length in micrometers, so a velocity
in m/s is numerically equal to um/us and never needs conversion.  Angular
frequencies (Rabi couplings, interaction shifts) are rad/us; wavevectors
are rad/um, which makes the Doppler rate k*v come out directly in rad/us.
User-facing Rabi inputs are Omega/2pi in MHz and are converted with
:func:`mhz_to_rad_per_us` at the API boundary.  1 MHz of ordinary
frequency equals 1 cycle/us, so the conversions are exact.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple

import numpy as np

if TYPE_CHECKING:
    import configparser

TWO_PI = 2.0 * math.pi
# How far from 1 a converged grid's Maxwell mass (continuum_weight_mass) may be.
WEIGHT_MASS_TOL = 1e-3

# CODATA values truncated to 6 significant digits; the tabulated reference
# data this package reproduces never exceeds 3 digits.
BOLTZMANN_J_PER_K = 1.38065e-23
ATOMIC_MASS_KG = 1.66054e-27

RB87_MASS_KG = 86.9092 * ATOMIC_MASS_KG
CS133_MASS_KG = 132.905 * ATOMIC_MASS_KG


def mhz_to_rad_per_us(f_mhz: float) -> float:
    """Convert an ordinary frequency in MHz to an angular rate in rad/us."""
    return TWO_PI * f_mhz


def rad_per_us_to_mhz(omega: float) -> float:
    """Inverse of :func:`mhz_to_rad_per_us`."""
    return omega / TWO_PI


def wavelength_to_wavevector(lambda_nm: float) -> float:
    """Single-photon wavevector 2*pi/lambda in rad/um for lambda in nm."""
    if lambda_nm <= 0:
        raise ValueError("wavelength must be positive")
    return TWO_PI * 1000.0 / lambda_nm


def two_photon_wavevector(
    lambda_a_nm: float, lambda_b_nm: float, counterpropagating: bool = True
) -> float:
    """Effective wavevector of a two-photon transition, rad/um.

    Counterpropagating beams subtract their single-photon wavevectors,
    copropagating beams add them.  The result is returned as a positive
    magnitude; signs are attached per rail by the Hamiltonian builders.
    """
    ka = wavelength_to_wavevector(lambda_a_nm)
    kb = wavelength_to_wavevector(lambda_b_nm)
    return abs(ka - kb) if counterpropagating else ka + kb


def infrared_wavevector(lambda_ir_nm: float) -> float:
    """Effective wavevector of a counterpropagating equal-wavelength pair."""
    return 2.0 * wavelength_to_wavevector(lambda_ir_nm)


@dataclass(frozen=True)
class AtomSpecies:
    """Atom constants: identifier, mass and Rydberg-state lifetime."""

    name: str
    mass_kg: float
    rydberg_lifetime_us: float

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.mass_kg <= 0:
            raise ValueError("mass must be positive")
        if self.rydberg_lifetime_us <= 0:
            raise ValueError("lifetime must be positive")


@dataclass(frozen=True)
class WavevectorSet:
    """Signed-magnitude wavevectors for the excitation and gap-time drives.

    ``k_excite`` is the effective two-photon wavevector of the optical
    ground-Rydberg drive; ``k_wait`` the effective wavevector of the
    infrared drive that shuttles population to the auxiliary Rydberg
    state during a wait window.  Both in rad/um.
    """

    k_excite: float
    k_wait: float


class MissingPairError(KeyError):
    """Raised when an interaction lookup has no entry for a level pair."""


@dataclass(frozen=True)
class InteractionTable:
    """Van der Waals C6 coefficients keyed by unordered Rydberg-level pairs.

    ``entries`` maps (n_a, n_b) principal quantum numbers to C6 in
    THz*um^6 (ordinary frequency).  ``separation_um`` is the trap
    separation L; pair shifts are C6/L^6 scaled to angular rad/us.

    The entries are stored read-only (a write raises TypeError), and a
    table hashes and compares by content, whatever the insertion order:
    a preset is shared by every caller, and gate plans are cached by it.
    """

    entries: Mapping[tuple[int, int], float]
    separation_um: float

    def __post_init__(self) -> None:
        if not 0 < self.separation_um < math.inf:
            raise ValueError("separation must be positive and finite")
        normalized = {}
        for (a, b), c6 in self.entries.items():
            key = (min(a, b), max(a, b))
            if key in normalized and normalized[key] != c6:
                raise ValueError(f"conflicting C6 entries for pair {key}")
            normalized[key] = float(c6)
        object.__setattr__(self, "entries", MappingProxyType(normalized))
        object.__setattr__(self, "_hash", hash((frozenset(normalized.items()), self.separation_um)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # A mappingproxy does not pickle; its dict does.
        return type(self), (dict(self.entries), self.separation_um)

    def c6(self, pair: tuple[int, int]) -> float:
        key = (min(pair), max(pair))
        try:
            return self.entries[key]
        except KeyError:
            raise MissingPairError(f"no C6 entry for Rydberg pair {key}") from None

    def shift(self, pair: tuple[int, int]) -> float:
        """Interaction shift V = C6/L^6 as an angular rate in rad/us.

        C6 is tabulated as ordinary frequency (THz), so C6/L^6 is first
        expressed in MHz (= 1/us) and then multiplied by 2*pi.
        """
        try:
            shift = TWO_PI * (self.c6(pair) * 1.0e6 / self.separation_um**6)
        except (OverflowError, ZeroDivisionError):  # L**6 out of float range
            shift = math.inf
        if not math.isfinite(shift):
            raise ValueError(f"separation {self.separation_um!r} um gives no finite shift")
        return shift


@dataclass(frozen=True)
class AtomLaserConfig:
    """A species plus the laser geometry and interaction data for one setup."""

    name: str
    species: AtomSpecies
    lambda_lower_nm: float
    lambda_upper_nm: float
    lambda_ir_nm: float
    excite_counterpropagating: bool = True
    interactions: InteractionTable | None = None

    def __post_init__(self) -> None:
        require_finite_fields(self)
        for name in ("lambda_lower_nm", "lambda_upper_nm", "lambda_ir_nm"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")

    @cached_property
    def wavevectors(self) -> WavevectorSet:
        return WavevectorSet(
            k_excite=two_photon_wavevector(
                self.lambda_lower_nm,
                self.lambda_upper_nm,
                self.excite_counterpropagating,
            ),
            k_wait=infrared_wavevector(self.lambda_ir_nm),
        )


def require_finite_fields(params) -> None:
    """Reject a NaN or infinite numeric field of a parameter dataclass;
    NumPy scalars and arrays are checked element by element."""
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, float):  # NumPy's float64 too
            finite = math.isfinite(value)
        elif isinstance(value, (np.number, np.ndarray)):
            finite = np.all(np.isfinite(value))
        else:  # ints are finite, and other fields are not numbers
            continue
        if not finite:
            raise ValueError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SimulationParams:
    """Drive amplitudes, kinematics and wait settings for one run.

    All Rabi amplitudes are angular (rad/us) and signed; ``omega_dp`` may
    be negative to flip the deexcitation drive.  ``v_mps`` is the velocity
    component along the beam axis and ``z0_um`` the initial coordinate;
    either may be a 1-D array, one protocol run per entry.
    """

    omega: float = 0.0
    omega_dp: float = 0.0
    omega_if: float = 0.0
    z0_um: float = 0.0
    v_mps: float = 0.0
    t_wait_us: float = 0.0
    n_gap_cycles: int = 1

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.t_wait_us < 0:
            raise ValueError("wait time must be nonnegative")
        _require_whole_cycles(self.n_gap_cycles)

    @classmethod
    def from_mhz(
        cls,
        omega_mhz: float = 0.0,
        omega_dp_mhz: float = 0.0,
        omega_if_mhz: float = 0.0,
        **kwargs,
    ) -> "SimulationParams":
        return cls(
            omega=mhz_to_rad_per_us(omega_mhz),
            omega_dp=mhz_to_rad_per_us(omega_dp_mhz),
            omega_if=mhz_to_rad_per_us(omega_if_mhz),
            **kwargs,
        )


def _require_whole_cycles(n_cycles: int) -> None:
    """The one rule for a gap cycle count: whole, 0 or more, within the float
    range (tested first: ``float()`` of a larger int raises OverflowError).  A
    half cycle through r3 flips the rails' sign, and so the ground phase."""
    if n_cycles > sys.float_info.max:
        raise ValueError("gap cycle count exceeds the float range")
    if not (n_cycles >= 0 and float(n_cycles).is_integer()):
        raise ValueError(f"gap cycle count must be a whole number, 0 or more, got {n_cycles!r}")


def gap_wait_time(n_cycles: int, omega_if: float) -> float:
    """Wait duration 4*n*pi/(sqrt(2)*Omega_IF) for n infrared cycles."""
    if omega_if <= 0:
        raise ValueError("infrared Rabi amplitude must be positive")
    _require_whole_cycles(n_cycles)
    return 4.0 * n_cycles * math.pi / (math.sqrt(2.0) * omega_if)


def scalar_or_array(x):
    """A 0-d result as a Python float or complex, a batched one as an array."""
    x = np.asarray(x)
    return x if x.ndim else x.item()


class ConvergenceError(RuntimeError):
    """Raised when a velocity grid does not cover the Maxwell distribution."""


def thermal_rms_speed(temperature_uk: float, species: AtomSpecies) -> float:
    """One-dimensional rms speed sqrt(kB*T/m) in m/s."""
    if not 0 < temperature_uk < math.inf:
        raise ValueError("temperature must be positive and finite")
    t_kelvin = temperature_uk * 1.0e-6
    return math.sqrt(BOLTZMANN_J_PER_K * t_kelvin / species.mass_kg)


def maxwell_weight(v_mps, temperature_uk: float, species: AtomSpecies):
    """Unnormalized 1D Maxwell weight exp(-m v^2 / (2 kB T)).

    :func:`maxwell_rule` normalizes it on a discrete grid.  Accepts scalar
    or array velocities.
    """
    sigma = thermal_rms_speed(temperature_uk, species)
    v = np.asarray(v_mps, dtype=float)
    w = np.exp(-0.5 * (v / sigma) ** 2)
    return scalar_or_array(w)


class MaxwellRule(NamedTuple):
    """A velocity grid's Maxwell weights at one temperature, normalized by
    their sum, and its mass (:func:`continuum_weight_mass`)."""

    weights: np.ndarray
    mass: float

    def mean(self, values) -> float:
        """Weighted mean of ``values``, every axis of which runs over the
        grid: one axis per atom, as values[i, j] at (v[i], v[j]) for two."""
        mean = np.asarray(values, dtype=float)
        for _ in range(mean.ndim):
            mean = self.weights @ mean
        return float(mean)


def maxwell_rule(velocities: np.ndarray, temperature_uk: float, species: AtomSpecies) -> MaxwellRule:
    """The one place a thermal average gets its weights and mass; each caller
    judges the mass.  Weights that all underflow raise ConvergenceError."""
    weights = maxwell_weight(velocities, temperature_uk, species)
    total = np.sum(weights)
    if not 0.0 < total < math.inf:
        raise ConvergenceError(f"the Maxwell weights at {temperature_uk:g} uK "
                               f"sum to {total:g} on the {np.size(velocities)}-point grid")
    return MaxwellRule(weights / total, continuum_weight_mass(velocities, temperature_uk, species))


def maxwell_grid(
    temperature_uk: float,
    species: AtomSpecies,
    n_points: int = 201,
) -> np.ndarray:
    """Uniform symmetric velocity grid of at least 2 points over +-5 rms speeds."""
    if n_points < 2:
        raise ValueError(f"the velocity grid needs at least 2 points, got {n_points}")
    sigma = thermal_rms_speed(temperature_uk, species)
    return np.linspace(-5.0 * sigma, 5.0 * sigma, n_points)


def continuum_weight_mass(
    velocities: np.ndarray, temperature_uk: float, species: AtomSpecies
) -> float:
    """Probability mass of the normalized Maxwell density over the grid.

    Values close to 1 certify that the grid covers and resolves the
    distribution; protocol averaging rejects grids whose mass is not 1
    within :data:`WEIGHT_MASS_TOL`.  The order of the points does not count.
    """
    sigma = thermal_rms_speed(temperature_uk, species)
    v = np.sort(np.asarray(velocities, dtype=float))
    pdf = maxwell_weight(v, temperature_uk, species) / (sigma * math.sqrt(2.0 * math.pi))
    return float(np.trapezoid(pdf, v))


RB87 = AtomSpecies("Rb-87", RB87_MASS_KG, rydberg_lifetime_us=787.0)
CS133 = AtomSpecies("Cs-133", CS133_MASS_KG, rydberg_lifetime_us=787.0)

# C6 coefficients (THz um^6) for the 95/97/99 D-state combinations used by
# the blockade gate, at trap separation L = 7 um.
RB_D_STATE_C6 = InteractionTable(
    entries={
        (95, 95): -14.0,
        (95, 97): -21.0,
        (95, 99): 29.0,
        (97, 97): -18.0,
        (97, 99): -26.0,
    },
    separation_um=7.0,
)

# Labels name the intermediate state of the optical leg (and, where needed,
# of the infrared leg).  Wavelengths are stored to 0.1 nm; wavevectors and
# mismatches are always derived, never hard-coded.
_BUILTIN = (
    AtomLaserConfig(
        name="rb87_5p12",
        species=RB87,
        lambda_lower_nm=795.0,
        lambda_upper_nm=474.0,
        lambda_ir_nm=2272.0,
        interactions=RB_D_STATE_C6,
    ),
    AtomLaserConfig(
        name="rb87_5p32",
        species=RB87,
        lambda_lower_nm=780.2,
        lambda_upper_nm=468.6,
        lambda_ir_nm=2601.0,
    ),
    AtomLaserConfig(
        name="cs133_6p12",
        species=CS133,
        lambda_lower_nm=894.6,
        lambda_upper_nm=494.6,
        lambda_ir_nm=2260.5,
    ),
    AtomLaserConfig(
        name="rb87_6p12_4f52",
        species=RB87,
        lambda_lower_nm=1003.6,
        lambda_upper_nm=421.7,
        lambda_ir_nm=1452.0,
    ),
    AtomLaserConfig(
        name="cs133_7p12",
        species=CS133,
        lambda_lower_nm=1038.4,
        lambda_upper_nm=459.4,
        lambda_ir_nm=1758.7,
    ),
)

DEFAULT_CONFIG_NAME = "rb87_5p12"
CONFIG_PATH_ENV_VAR = "DUALRAIL_CONFIG"


def get_config(name: str | None = None, path: str | None = None) -> AtomLaserConfig:
    """Look up a preset by name among the bundled presets and those of an
    INI file: ``path`` if given, else the file DUALRAIL_CONFIG names.

    Presets loaded from the file take precedence over bundled ones of the
    same name.  An unknown name raises KeyError.
    """
    wanted = name or DEFAULT_CONFIG_NAME
    pool: dict[str, AtomLaserConfig] = {c.name: c for c in _BUILTIN}
    path = path or os.environ.get(CONFIG_PATH_ENV_VAR)
    if path:
        for cfg in load_configs(path):
            pool[cfg.name] = cfg
    try:
        return pool[wanted]
    except KeyError:
        raise KeyError(
            f"unknown preset {wanted!r}; available: {sorted(pool)}"
        ) from None


_REQUIRED_KEYS = (
    "mass_kg", "tau_us", "lambda_lower_nm", "lambda_upper_nm", "lambda_ir_nm"
)
# INI keys that set a field of another name.
_INI_FIELDS = {"tau_us": "rydberg_lifetime_us", "l_um": "separation_um"}


def _ini_error(section: configparser.SectionProxy, key: str, path: str, what: str):
    """ValueError naming the key, its value, the section and the file."""
    sets = f" (it sets {_INI_FIELDS[key]})" if key in _INI_FIELDS else ""
    return ValueError(f"{key} = {section[key]} in preset [{section.name}] of {path} "
                      f"is not {what}{sets}")


def _ini_float(section: configparser.SectionProxy, key: str, path: str) -> float:
    """The value of ``key`` in ``section`` of the INI file ``path`` as a
    finite float, positive unless it is a C6 coefficient; anything else
    raises :func:`_ini_error`."""
    try:
        value = float(section[key])
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise _ini_error(section, key, path, "a finite number")
    if value <= 0 and not key.startswith("c6_"):
        raise _ini_error(section, key, path, "positive")
    return value


def load_configs(path: str) -> list[AtomLaserConfig]:
    """Load presets from an INI file, one section per preset.

    Required keys: mass_kg, tau_us, lambda_lower_nm, lambda_upper_nm,
    lambda_ir_nm.  Optional: species (display name), counterpropagating
    (default true), L_um plus any number of c6_<na>_<nb> entries in
    THz*um^6 forming the interaction table; L_um is required once a c6
    entry is present.  A missing key, a key that sets nothing (a misspelled
    one, or L_um without a c6 entry), a malformed file, a malformed c6 key
    or a number that is not finite, or not positive where the quantity
    must be, raises ValueError.
    """
    import configparser  # the only INI reader; kept out of start-up

    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ValueError(f"malformed config file {path}: {exc}") from None
    if not read:
        raise FileNotFoundError(path)
    configs = []
    for section in parser.sections():
        sec = parser[section]
        required = list(_REQUIRED_KEYS)
        if any(key.startswith("c6_") for key in sec):
            required.append("l_um")
        missing = [key for key in required if key not in sec]
        if missing:
            raise ValueError(
                f"preset {section!r} in {path} lacks {', '.join(missing)}"
            )
        known = (*required, "species", "counterpropagating")
        for key in sec:  # a key that sets no field is a typo, or a table's lone L
            if key not in known and not key.startswith("c6_"):
                raise _ini_error(sec, key, path, "read without a c6_<na>_<nb> entry"
                                 if key == "l_um" else "a preset key")
        species = AtomSpecies(
            name=sec.get("species", section),
            mass_kg=_ini_float(sec, "mass_kg", path),
            rydberg_lifetime_us=_ini_float(sec, "tau_us", path),
        )
        c6_entries = {}
        for key in sec:
            if key.startswith("c6_"):
                na, _, nb = key[3:].partition("_")
                if not (na.isdecimal() and nb.isdecimal()):
                    raise _ini_error(sec, key, path, "a c6_<na>_<nb> entry")
                c6_entries[(int(na), int(nb))] = _ini_float(sec, key, path)
        interactions = None
        if c6_entries:
            interactions = InteractionTable(
                entries=c6_entries, separation_um=_ini_float(sec, "l_um", path)
            )
        configs.append(
            AtomLaserConfig(
                name=section,
                species=species,
                lambda_lower_nm=_ini_float(sec, "lambda_lower_nm", path),
                lambda_upper_nm=_ini_float(sec, "lambda_upper_nm", path),
                lambda_ir_nm=_ini_float(sec, "lambda_ir_nm", path),
                excite_counterpropagating=sec.getboolean(
                    "counterpropagating", fallback=True
                ),
                interactions=interactions,
            )
        )
    return configs
