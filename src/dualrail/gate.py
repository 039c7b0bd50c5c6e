"""Two-qubit blockade-gate simulation and fidelity metrics.

The controlled-Z sequence excites the control atom to the Rydberg rails,
shelves it through infrared cycles while the target atom runs its own
pi + 3*pi rotation, and deexcites it with a sign-flipped amplitude.  The
per-input diagonal amplitudes (a, b, c) feed a trace-formula rotation
error; Rydberg residence times feed the decay error.

Propagation uses per-stage rotating frames: inside one stage every drive
phase k*(z0 + v*t) is absorbed into level phases that grow linearly in
time, leaving a time-independent real symmetric Hamiltonian whose
off-diagonals are the half-amplitudes and whose diagonal picks up the
static Doppler rates -k*v per rail (plus the interaction shifts).  One
eigendecomposition per stage then gives the exact time-ordered propagator
and exact time-integrated Rydberg occupations, with frame factors applied
at the stage edges.  It is the package's only production engine: the
single-atom protocols run on it too, through
:func:`dualrail.propagator.propagate_atom`.

The engine takes scalar velocities or arrays of velocity pairs.  Only the
Doppler diagonal depends on the velocities, and only on those of the atoms
a stage drives, so each stage builds its Hamiltonian once, broadcasts the
diagonal over the pairs and diagonalizes the stack in one ``eigh`` call; a
stage that only scalar velocities drive is one matrix for every pair, and a
stage without drives needs none.  The 100 x 100 grid average runs one batch
per grid row (one control velocity against every target velocity).
"""

from __future__ import annotations

import math
# Unused; perfbench's tracer patches this name (ROADMAP item 6).
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Literal, Mapping, Sequence

import numpy as np

from dualrail.core import (
    AtomLaserConfig,
    AtomSpecies,
    ConvergenceError,
    gap_wait_time,
    maxwell_weight,
    require_finite_fields,
    scalar_or_array,
    thermal_rms_speed,
)
from dualrail.hamiltonians import pi_time

Method = Literal["dual_rail", "traditional"]

GATE_INPUTS = ("00", "01", "10", "11")

# Principal quantum numbers keying the interaction table per rail level.
DEFAULT_PRINCIPAL = {"r1": 95, "r2": 97, "r3": 99}

# Coupling topologies: (anchor_level, driven_level, wavevector_sign).
OPTICAL_DUAL = (("1", "r1", +1), ("1", "r2", -1))
OPTICAL_SINGLE = (("1", "r1", +1),)
INFRARED = (("r3", "r1", +1), ("r3", "r2", -1))


@dataclass(frozen=True)
class AtomDrive:
    """One atom's drive during a stage: amplitude, wavevector, topology."""

    amp: float
    k: float
    couplings: tuple[tuple[str, str, int], ...]


@dataclass(frozen=True)
class GateStage:
    """Absolute-time window with optional control and target drives."""

    t0: float
    t1: float
    control: AtomDrive | None = None
    target: AtomDrive | None = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class TwoAtomSpace:
    """Tensor basis (control x target) with per-pair interaction shifts.

    A single-level atom tuple ("0",) models a spectator qubit in the
    uncoupled |0> state.  ``shifts`` maps (control_level, target_level)
    to the diagonal interaction rate in rad/us for double-Rydberg states.
    """

    control_levels: tuple[str, ...]
    target_levels: tuple[str, ...]
    shifts: Mapping[tuple[str, str], float] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.control_levels) * len(self.target_levels)

    def index(self, control_level: str, target_level: str) -> int:
        return self.control_levels.index(control_level) * len(
            self.target_levels
        ) + self.target_levels.index(target_level)

    def labels(self) -> list[tuple[str, str]]:
        return [
            (c, t) for c in self.control_levels for t in self.target_levels
        ]

    @cached_property
    def shift_diagonal(self) -> np.ndarray:
        """Interaction shift of every basis state, in basis order."""
        return np.array([self.shifts.get(label, 0.0) for label in self.labels()])

    def single_rydberg_indices(self) -> list[int]:
        out = []
        for i, (c, t) in enumerate(self.labels()):
            if (c.startswith("r")) != (t.startswith("r")):
                out.append(i)
        return out


def _stage_hamiltonian(
    space: TwoAtomSpace, stage: GateStage
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Velocity-independent in-frame Hamiltonian of a stage (real
    symmetric: half-amplitudes off the diagonal, interaction shifts on it)
    plus the control and target frame rates of every basis state.

    The rates f make theta(t) = f_c (z0_c + v_c t) + f_t (z0_t + v_t t)
    cancel the drive phases: a coupling anchor->driven with phase s*k*z
    forces f(driven) = f(anchor) - s*k, anchors at 0.  The Doppler rates
    -(f_c v_c + f_t v_t) still belong on the diagonal.
    """
    nc, nt = len(space.control_levels), len(space.target_levels)
    h = np.diag(space.shift_diagonal).reshape(nc, nt, nc, nt)
    frames = np.zeros((2, nc, nt))
    # The target's couplings act on the (target, control) transposed views.
    for drive, levels, h_atom, frame in (
        (stage.control, space.control_levels, h, frames[0]),
        (stage.target, space.target_levels, h.transpose(1, 0, 3, 2), frames[1].T),
    ):
        if drive is None:
            continue
        half = 0.5 * drive.amp
        for anchor, driven, sign in drive.couplings:
            i, j = levels.index(driven), levels.index(anchor)
            for other in range(h_atom.shape[1]):
                h_atom[i, other, j, other] += half
                h_atom[j, other, i, other] += half
            frame[i] = -sign * drive.k
    return h.reshape(space.dim, space.dim), frames[0].ravel(), frames[1].ravel()


def lab_hamiltonian(
    space: TwoAtomSpace,
    stage: GateStage,
    t: float,
    v_control: float,
    v_target: float,
    z0_control: float,
    z0_target: float,
) -> np.ndarray:
    """Lab-frame Hamiltonian of a stage at time t (for cross-checks)."""
    h = np.zeros((space.dim, space.dim), dtype=complex)
    for i, (cl, tl) in enumerate(space.labels()):
        h[i, i] = space.shifts.get((cl, tl), 0.0)
    z_c = z0_control + v_control * t
    z_t = z0_target + v_target * t
    if stage.control is not None:
        for anchor, driven, sign in stage.control.couplings:
            amp = 0.5 * stage.control.amp * np.exp(1j * sign * stage.control.k * z_c)
            for tl in space.target_levels:
                i, j = space.index(driven, tl), space.index(anchor, tl)
                h[i, j] += amp
                h[j, i] += np.conj(amp)
    if stage.target is not None:
        for anchor, driven, sign in stage.target.couplings:
            amp = 0.5 * stage.target.amp * np.exp(1j * sign * stage.target.k * z_t)
            for cl in space.control_levels:
                i, j = space.index(cl, driven), space.index(cl, anchor)
                h[i, j] += amp
                h[j, i] += np.conj(amp)
    return h


def _occupation_integral(
    vectors: np.ndarray,
    coeffs: np.ndarray,
    eigenvalues: np.ndarray,
    duration: float,
    rows: np.ndarray,
) -> np.ndarray:
    """Exact integral of the summed populations of ``rows`` over a stage,
    for one eigensystem or a stack of them (leading batch axis)."""
    gaps = eigenvalues[..., :, None] - eigenvalues[..., None, :]
    small = np.abs(gaps) < 1e-12
    safe = gaps + small
    integrals = 1j * ((np.exp(-1j * duration * safe) - 1.0) / safe)
    integrals[small] = duration
    amps = vectors[..., rows, :] * coeffs[..., None, :]
    return np.real(((amps @ integrals) * amps.conj()).sum(axis=(-2, -1)))


def propagate_stages(
    psi: np.ndarray,
    space: TwoAtomSpace,
    stages: Sequence[GateStage],
    v_control: float | np.ndarray,
    v_target: float | np.ndarray,
    z0_control: float | np.ndarray,
    z0_target: float | np.ndarray,
    occupation_rows: Sequence[int] = (),
) -> tuple[np.ndarray, float | np.ndarray]:
    """Exact staged evolution; returns the final state and the summed
    time-integrated population of ``occupation_rows``.

    The velocities and initial coordinates are scalars or 1-D arrays of one
    length N (a scalar pairs with every entry of the others).  With arrays,
    every stage takes one stacked eigendecomposition of the N velocity
    pairs, all starting from ``psi`` (the coordinates enter only the frame
    phases), and the results are an (N, dim) state stack and an (N,)
    occupation array.  Scalars keep every array one axis smaller, which is
    cheaper for a single pair.
    """
    v_c, v_t, z_c, z_t = (np.asarray(x, dtype=float)
                          for x in (v_control, v_target, z0_control, z0_target))
    batch = v_c.shape or v_t.shape or z_c.shape or z_t.shape
    v_c, v_t, z_c, z_t = v_c[..., None], v_t[..., None], z_c[..., None], z_t[..., None]
    psi = np.zeros(batch + (space.dim,), dtype=complex) + psi
    occupation = np.zeros(batch)
    rows = np.asarray(occupation_rows, dtype=int)
    identity = np.eye(space.dim)
    for stage in stages:
        if stage.control is None and stage.target is None:
            # Undriven: no frame, and H is the diagonal of interaction shifts.
            populations = np.abs(psi[..., rows]) ** 2
            occupation += stage.duration * populations.sum(axis=-1)
            psi = np.exp(-1j * stage.duration * space.shift_diagonal) * psi
            continue
        h0, frame_c, frame_t = _stage_hamiltonian(space, stage)
        # An undriven atom has no frame, so its velocities add nothing.
        rates = frame_c * v_c if stage.control is not None else 0.0
        if stage.target is not None:
            rates = rates + frame_t * v_t
        h = h0 - rates[..., None] * identity
        offset = frame_c * z_c + frame_t * z_t
        theta0 = offset + rates * stage.t0
        theta1 = offset + rates * stage.t1

        eigenvalues, vectors = np.linalg.eigh(h)
        coeffs = ((np.exp(1j * theta0) * psi)[..., None, :] @ vectors)[..., 0, :]
        occupation += _occupation_integral(
            vectors, coeffs, eigenvalues, stage.duration, rows
        )
        phases = np.exp(-1j * stage.duration * eigenvalues) * coeffs
        phi = (vectors @ phases[..., None])[..., 0]
        psi = np.exp(-1j * theta1) * phi
    return psi, scalar_or_array(occupation)


@dataclass(frozen=True)
class GateParams:
    """Blockade-gate drives, geometry and interaction data.

    ``target_deexcite`` selects the amplitude of the target's 3*pi pulse:
    "mirror" flips the excitation amplitude (-omega_t), "optimized" uses
    -|omega_dp| instead.
    """

    omega: float
    omega_dp: float
    omega_t: float
    omega_if: float
    n_gap_cycles: int
    config: AtomLaserConfig
    z0_control_um: float = 0.0
    z0_target_um: float = 0.0
    target_deexcite: str = "mirror"
    principal: Mapping[str, int] = field(
        default_factory=lambda: dict(DEFAULT_PRINCIPAL)
    )

    def __post_init__(self) -> None:
        require_finite_fields(self)
        for name in ("omega", "omega_dp", "omega_t", "omega_if"):
            if getattr(self, name) == 0:
                raise ValueError(f"{name} must be nonzero")
        if self.target_deexcite not in ("mirror", "optimized"):
            raise ValueError("target_deexcite must be 'mirror' or 'optimized'")
        if self.omega_t > 0 and self.target_window > self.t_wait + 1e-12:
            raise ValueError(
                "target pulse train must fit inside the wait window: "
                f"{self.target_window} > {self.t_wait}"
            )

    @property
    def t_wait(self) -> float:
        return gap_wait_time(self.n_gap_cycles, self.omega_if)

    @property
    def target_window(self) -> float:
        return 4.0 * pi_time(self.omega_t)

    @property
    def tau_us(self) -> float:
        return self.config.species.rydberg_lifetime_us

    def pair_shift(self, level_a: str, level_b: str) -> float:
        table = self.config.interactions
        if table is None:
            raise ValueError(f"config {self.config.name!r} carries no C6 table")
        return table.shift((self.principal[level_a], self.principal[level_b]))

    def rydberg_shifts(self) -> dict[tuple[str, str], float]:
        out = {}
        for a in ("r1", "r2", "r3"):
            for b in ("r1", "r2"):
                out[(a, b)] = self.pair_shift(a, b)
        return out

    def nine_level_shifts(self) -> dict[tuple[int, int], float]:
        """Shifts keyed by rail indices for the nine-level builder."""
        idx = {"r1": 1, "r2": 2, "r3": 3}
        out = {}
        for a in ("r1", "r2", "r3"):
            for b in ("r1", "r2"):
                key = tuple(sorted((idx[a], idx[b])))
                out[key] = self.pair_shift(a, b)
        return out


def gate_duration(params: GateParams, method: Method = "dual_rail") -> float:
    """Total sequence length in us.

    Resilient method: pi/(sqrt(2) Omega) + t_wait + 3 pi/(sqrt(2)|Omega_dp|).
    Traditional method: pi/Omega' + t_wait + pi/Omega' with Omega' = sqrt(2) Omega.
    """
    if method == "dual_rail":
        return pi_time(params.omega) + params.t_wait + 3.0 * pi_time(params.omega_dp)
    if method == "traditional":
        omega_prime = math.sqrt(2.0) * params.omega
        return 2.0 * math.pi / omega_prime + params.t_wait
    raise ValueError(f"unknown method {method!r}")


def _target_deexcite_amp(params: GateParams) -> float:
    if params.target_deexcite == "mirror":
        return -params.omega_t
    return -abs(params.omega_dp)


def _dual_rail_stages(params: GateParams) -> list[GateStage]:
    """Absolute-time stage list of the resilient gate.

    The target's 1+3 pulse train starts at the opening of the wait
    window; any remaining window is infrared shelving only.
    """
    k = params.config.wavevectors.k_excite
    k_w = params.config.wavevectors.k_wait
    t_pi_c = pi_time(params.omega)
    t_pi_t = pi_time(params.omega_t)
    amp_down = _target_deexcite_amp(params)
    t_down = 3.0 * pi_time(amp_down)
    ir = AtomDrive(params.omega_if, k_w, INFRARED)

    stages = [
        GateStage(
            0.0, t_pi_c, control=AtomDrive(params.omega, k, OPTICAL_DUAL)
        )
    ]
    t = t_pi_c
    stages.append(
        GateStage(
            t, t + t_pi_t,
            control=ir, target=AtomDrive(params.omega_t, k, OPTICAL_DUAL),
        )
    )
    t += t_pi_t
    stages.append(
        GateStage(
            t, t + t_down,
            control=ir, target=AtomDrive(amp_down, k, OPTICAL_DUAL),
        )
    )
    t += t_down
    wait_end = t_pi_c + params.t_wait
    if t > wait_end + 1e-12:
        raise ValueError(
            f"target pulse train ({t - t_pi_c:.6f} us) exceeds the wait "
            f"window ({params.t_wait:.6f} us)"
        )
    if wait_end - t > 1e-12:
        stages.append(GateStage(t, wait_end, control=ir))
    stages.append(
        GateStage(
            wait_end,
            wait_end + 3.0 * pi_time(params.omega_dp),
            control=AtomDrive(params.omega_dp, k, OPTICAL_DUAL),
        )
    )
    return stages


def _traditional_stages(params: GateParams) -> list[GateStage]:
    """pi - 2pi - wait - pi single-rail sequence, all at Omega' = sqrt(2) Omega."""
    k = params.config.wavevectors.k_excite
    omega_prime = math.sqrt(2.0) * params.omega
    t_pi = math.pi / omega_prime
    if params.t_wait < 2.0 * t_pi - 1e-12:
        raise ValueError(
            f"wait window ({params.t_wait:.6f} us) shorter than the "
            f"target 2*pi pulse ({2.0 * t_pi:.6f} us)"
        )
    drive_c = AtomDrive(omega_prime, k, OPTICAL_SINGLE)
    drive_t = AtomDrive(omega_prime, k, OPTICAL_SINGLE)
    stages = [GateStage(0.0, t_pi, control=drive_c)]
    stages.append(GateStage(t_pi, 3.0 * t_pi, target=drive_t))
    wait_end = t_pi + params.t_wait
    if wait_end - 3.0 * t_pi > 1e-12:
        stages.append(GateStage(3.0 * t_pi, wait_end))
    stages.append(GateStage(wait_end, wait_end + t_pi, control=drive_c))
    return stages


def _strip(stages: Iterable[GateStage], *, control: bool, target: bool) -> list[GateStage]:
    """Drop one atom's drives from a stage list (spectator in |0>)."""
    return [
        GateStage(
            s.t0,
            s.t1,
            control=s.control if control else None,
            target=s.target if target else None,
        )
        for s in stages
    ]


def _spaces(params: GateParams, method: Method):
    if method == "dual_rail":
        shifts = params.rydberg_shifts()
        full = TwoAtomSpace(("1", "r1", "r2", "r3"), ("1", "r1", "r2"), shifts)
        control_only = TwoAtomSpace(("1", "r1", "r2", "r3"), ("0",))
        target_only = TwoAtomSpace(("0",), ("1", "r1", "r2"))
    else:
        v11 = params.pair_shift("r1", "r1")
        full = TwoAtomSpace(("1", "r1"), ("1", "r1"), {("r1", "r1"): v11})
        control_only = TwoAtomSpace(("1", "r1"), ("0",))
        target_only = TwoAtomSpace(("0",), ("1", "r1"))
    return full, control_only, target_only


def _simulate_input(
    input_label: str,
    params: GateParams,
    v_control: float | np.ndarray,
    v_target: float | np.ndarray,
    method: Method,
) -> tuple[complex | np.ndarray, float | np.ndarray]:
    """:func:`simulate_gate_input` for input "01", "10" or "11", with
    scalar or 1-D array velocities as in :func:`propagate_stages`."""
    stages = (
        _dual_rail_stages(params)
        if method == "dual_rail"
        else _traditional_stages(params)
    )
    full, control_only, target_only = _spaces(params, method)
    if input_label == "01":
        space = target_only
        stages = _strip(stages, control=False, target=True)
        start = ("0", "1")
    elif input_label == "10":
        space = control_only
        stages = _strip(stages, control=True, target=False)
        start = ("1", "0")
    else:
        space = full
        start = ("1", "1")

    psi0 = np.zeros(space.dim, dtype=complex)
    psi0[space.index(*start)] = 1.0
    psi, t_r = propagate_stages(
        psi0,
        space,
        stages,
        v_control,
        v_target,
        params.z0_control_um,
        params.z0_target_um,
        occupation_rows=space.single_rydberg_indices(),
    )
    return psi[..., space.index(*start)], t_r


def simulate_gate_input(
    input_label: str,
    params: GateParams,
    v_control: float = 0.0,
    v_target: float = 0.0,
    method: Method = "dual_rail",
) -> tuple[complex, float]:
    """Diagonal amplitude <input|U|input> and single-Rydberg residence time.

    Atoms initialized in |0> are uncoupled spectators, so |01> reduces to
    a target-only run inside the wait window, |10> to a control-only run,
    and |11> to the full two-atom space with blockade shifts.
    """
    if input_label not in GATE_INPUTS:
        raise ValueError(f"input must be one of {GATE_INPUTS}")
    if input_label == "00":
        return 1.0 + 0.0j, 0.0
    amp, t_r = _simulate_input(input_label, params, v_control, v_target, method)
    return complex(amp), t_r


def rotation_error(a: complex, b: complex, c: complex) -> float:
    """Trace-formula error of diag(1, a, b, c) against the ideal
    controlled-Z diag(1, -1, -1, -1); elementwise on arrays."""
    trace = 1.0 - a - b - c
    purity = 1.0 + abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2
    return 1.0 - (abs(trace) ** 2 + purity) / 20.0


def decay_error(
    t_r01: float, t_r10: float, t_r11: float, tau_us: float
) -> float:
    """Decay-limited infidelity from the per-input Rydberg residence times."""
    if tau_us <= 0:
        raise ValueError("lifetime must be positive")
    return (t_r01 + t_r10 + t_r11) / (4.0 * tau_us)


def decay_error_analytic(omega: float, tau_us: float) -> float:
    """Closed-form estimate 7*sqrt(2)*pi/(4*Omega*tau) for the resilient
    gate with |Omega_dp| ~ Omega and the standard pulse budget."""
    return 7.0 * math.sqrt(2.0) * math.pi / (4.0 * omega * tau_us)


@dataclass(frozen=True)
class GateReport:
    """Single-velocity-pair gate metrics."""

    method: str
    a: complex
    b: complex
    c: complex
    rotation_error: float
    decay_error: float
    duration_us: float
    rydberg_times_us: dict[str, float]
    v_control: float
    v_target: float

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "amplitudes": {
                "a_01": [self.a.real, self.a.imag],
                "b_10": [self.b.real, self.b.imag],
                "c_11": [self.c.real, self.c.imag],
            },
            "rotation_error": self.rotation_error,
            "decay_error": self.decay_error,
            "duration_us": self.duration_us,
            "rydberg_times_us": dict(self.rydberg_times_us),
            "v_control_mps": self.v_control,
            "v_target_mps": self.v_target,
        }


def gate_report(
    params: GateParams,
    v_control: float = 0.0,
    v_target: float = 0.0,
    method: Method = "dual_rail",
) -> GateReport:
    """Run all inputs at one velocity pair and collect the metrics."""
    a, t01 = simulate_gate_input("01", params, v_control, v_target, method)
    b, t10 = simulate_gate_input("10", params, v_control, v_target, method)
    c, t11 = simulate_gate_input("11", params, v_control, v_target, method)
    return GateReport(
        method=method,
        a=a,
        b=b,
        c=c,
        rotation_error=rotation_error(a, b, c),
        decay_error=decay_error(t01, t10, t11, params.tau_us),
        duration_us=gate_duration(params, method),
        rydberg_times_us={"01": t01, "10": t10, "11": t11},
        v_control=v_control,
        v_target=v_target,
    )


def velocity_grid(n_points: int = 100, bound: float = 0.5) -> np.ndarray:
    """Velocities equally distributed over [-bound, bound], inclusive."""
    return np.linspace(-bound, bound, n_points)


@dataclass(frozen=True)
class RotationErrorGrid:
    """Rotation errors over the (v_control, v_target) grid plus average."""

    velocities: np.ndarray
    errors: np.ndarray
    averaged: float
    method: str
    temperature_uk: float


def averaged_rotation_error(
    params: GateParams,
    temperature_uk: float,
    method: Method = "dual_rail",
    n_grid: int = 100,
    v_bound: float = 0.5,
) -> RotationErrorGrid:
    """Maxwell-weighted double-grid average of the rotation error.

    The two atomic velocities run over the same uniform grid; weights are
    the product of one-dimensional Maxwell factors, normalized by their
    sum (:func:`maxwell_grid_average`).  a depends only on the target
    velocity and b only on the control velocity, so each line takes one
    batched run; c takes one batched run per grid row (one control
    velocity), which bounds the memory of a stack to one row.  Within a
    row, the stages that drive only the control atom share one
    eigendecomposition across the batch.
    """
    if n_grid < 2:
        raise ValueError(f"the velocity grid needs at least 2 points, got {n_grid}")
    thermal_rms_speed(temperature_uk, params.config.species)  # rejects a bad T early
    velocities = velocity_grid(n_grid, v_bound)
    amps_a, _ = _simulate_input("01", params, 0.0, velocities, method)
    amps_b, _ = _simulate_input("10", params, velocities, 0.0, method)
    errors = np.empty((n_grid, n_grid))
    for i, (v_c, b) in enumerate(zip(velocities, amps_b)):
        c, _ = _simulate_input("11", params, v_c, velocities, method)
        errors[i] = rotation_error(amps_a, b, c)

    averaged = maxwell_grid_average(
        errors, velocities, temperature_uk, params.config.species
    )
    return RotationErrorGrid(velocities, errors, averaged, method, temperature_uk)


def maxwell_grid_average(
    values: np.ndarray,
    velocities: np.ndarray,
    temperature_uk: float,
    species: AtomSpecies,
) -> float:
    """Maxwell-weighted mean of values[i, j] at (velocities[i], velocities[j]).

    Only the weights depend on the temperature, so one grid of values
    serves every temperature.  Weights that all underflow on the grid
    raise :class:`~dualrail.core.ConvergenceError`.
    """
    weights = maxwell_weight(velocities, temperature_uk, species)
    w2 = np.outer(weights, weights)
    total = np.sum(w2)
    if not 0.0 < total < math.inf:
        raise ConvergenceError(f"the Maxwell weights at {temperature_uk:g} uK "
                               f"sum to {total:g} on the {len(velocities)}-point grid")
    return float(np.sum(w2 * values) / total)


@dataclass(frozen=True)
class FidelityReport:
    """F = 1 - averaged rotation error - decay error."""

    fidelity: float
    rotation_error_avg: float
    decay_error: float
    duration_us: float
    method: str
    temperature_uk: float

    @classmethod
    def combine(cls, grid: RotationErrorGrid, report: GateReport) -> "FidelityReport":
        """F from a grid average and a report's decay error and duration."""
        return cls(
            fidelity=1.0 - grid.averaged - report.decay_error,
            rotation_error_avg=grid.averaged,
            decay_error=report.decay_error,
            duration_us=report.duration_us,
            method=grid.method,
            temperature_uk=grid.temperature_uk,
        )


def fidelity(
    params: GateParams,
    temperature_uk: float,
    method: Method = "dual_rail",
    n_grid: int = 100,
    v_bound: float = 0.5,
) -> FidelityReport:
    """Gate fidelity with the decay error taken from the zero-velocity
    residence times (they vary only weakly with velocity)."""
    grid = averaged_rotation_error(params, temperature_uk, method, n_grid, v_bound)
    return FidelityReport.combine(grid, gate_report(params, 0.0, 0.0, method))


def grid_to_csv(grid: RotationErrorGrid, path: str) -> None:
    """Dump the rotation-error grid as CSV rows (v_c, v_t, E_ro)."""
    with open(path, "w", newline="") as fh:
        fh.write("v_c_mps,v_t_mps,e_ro\n")
        for i, v_c in enumerate(grid.velocities):
            for j, v_t in enumerate(grid.velocities):
                fh.write(
                    f"{v_c:.11e},{v_t:.11e},{grid.errors[i, j]:.11e}\n"
                )
