"""Two-qubit blockade-gate simulation and fidelity metrics.

The controlled-Z sequence excites the control atom to the Rydberg rails,
shelves it through infrared cycles while the target atom runs its own
pi + 3*pi rotation, and deexcites it with a sign-flipped amplitude: the
control runs the gap protocol and the target the excite/restore pair of
:mod:`dualrail.protocols`, built by the same pulse-train builders.  The
per-input diagonal amplitudes (a, b, c) feed a trace-formula rotation
error; Rydberg residence times feed the decay error.

Propagation uses per-stage rotating frames: inside one stage every drive
phase k*(z0 + v*t) is absorbed into level phases that grow linearly in
time, leaving a time-independent real symmetric Hamiltonian whose
off-diagonals are the half-amplitudes and whose diagonal picks up the
static Doppler rates -k*v per rail (plus the interaction shifts).  One
eigendecomposition per stage then gives the exact time-ordered propagator
and, for the rows a caller asks for, the exact time-integrated Rydberg
occupation, with frame factors applied at the stage edges.  The occupation
never feeds back into the state, so a caller that asks for no rows (the
rotation-error grid) pays nothing for it.  It is the package's only
production engine.  :func:`propagate_atom` runs a lone atom's whole pulse
train on it in one call: every single-atom protocol, and the gate's inputs
"10" and "01", whose other atom is an uncoupled spectator in |0>.

The engine takes scalar velocities or arrays of velocity pairs.  Only the
Doppler diagonal depends on the velocities, and only on those of the atoms
a stage drives, so each stage builds its Hamiltonian once, broadcasts the
diagonal over the pairs and diagonalizes the stack in one ``eigh`` call; a
stage that only scalar velocities drive is one matrix for every pair, and a
stage without drives needs none.  The 100 x 100 grid average runs one batch
per grid row (one control velocity against every target velocity).  Stage
times may be arrays as well: one drive sampled at many end times from the
same start is one stage and one eigendecomposition.

Work that does not depend on the velocities is done once.  A stage's
in-frame Hamiltonian and frame rates are memoized by content (the space's
levels and shifts and the stage's two drives, never its times) in a
bounded cache of read-only arrays, so repeated calls at new velocities
build none.  :func:`gate_report` builds the gate's pulse trains once for
its three inputs and its duration.
"""

from __future__ import annotations

import math
# Unused; perfbench's tracer patches this name (ROADMAP item 6).
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Literal, Mapping, Sequence

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
from dualrail.propagator import ComplexState

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
    to the diagonal interaction rate in rad/us for double-Rydberg states;
    it is stored as the sorted tuple of its items, so a space is hashable
    and two spaces are equal exactly when their levels and shifts are.
    """

    control_levels: tuple[str, ...]
    target_levels: tuple[str, ...]
    shifts: tuple[tuple[tuple[str, str], float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "shifts", tuple(sorted(dict(self.shifts).items())))

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
        shifts = dict(self.shifts)
        return np.array([shifts.get(label, 0.0) for label in self.labels()])

    def single_rydberg_indices(self) -> list[int]:
        out = []
        for i, (c, t) in enumerate(self.labels()):
            if (c.startswith("r")) != (t.startswith("r")):
                out.append(i)
        return out


@lru_cache(maxsize=256)
def _stage_hamiltonian(
    space: TwoAtomSpace, control: AtomDrive | None, target: AtomDrive | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Velocity-independent in-frame Hamiltonian of a stage with these
    drives and the frame rates of its basis states
    (:func:`_build_hamiltonian`), memoized by content: the space and the
    stage's two drives, never its times, which may be arrays.  The arrays
    are shared between calls and read-only."""
    arrays = _build_hamiltonian(space, control, target)
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _build_hamiltonian(
    space: TwoAtomSpace, control: AtomDrive | None, target: AtomDrive | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """In-frame Hamiltonian of the two drives (real symmetric:
    half-amplitudes off the diagonal, interaction shifts on it) plus the
    control and target frame rates of every basis state.

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
        (control, space.control_levels, h, frames[0]),
        (target, space.target_levels, h.transpose(1, 0, 3, 2), frames[1].T),
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
    h = np.diag(space.shift_diagonal).astype(complex)
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
    duration: float | np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """Exact integral of the summed populations of ``rows`` over a stage,
    for one eigensystem or a stack of them (leading batch axis); an array
    ``duration`` has a trailing axis of length 1, as in
    :func:`propagate_stages`."""
    gaps = eigenvalues[..., :, None] - eigenvalues[..., None, :]
    small = np.abs(gaps) < 1e-12
    safe = gaps + small
    if isinstance(duration, np.ndarray):  # sampled end times: (..., 1, 1)
        duration = duration[..., None]
    integrals = 1j * ((np.exp(-1j * duration * safe) - 1.0) / safe)
    np.copyto(integrals, duration, where=small)
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
    cheaper for a single pair.  A stage's ``t0`` and ``t1`` may be arrays of
    length N too: ``[GateStage(0.0, ts, drive)]`` gives the state at every
    end time in ``ts`` from one eigendecomposition.

    The occupation is computed only for the rows asked for.  With none
    (the default) it is 0 and costs nothing, and the state is the same,
    bit for bit, as with rows: the integral never feeds back into it.
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
        t0, t1, duration = stage.t0, stage.t1, stage.duration
        if isinstance(duration, np.ndarray):  # one drive sampled at several end times
            t0, t1, duration = (np.asarray(t, dtype=float)[..., None]
                                for t in (t0, t1, duration))
        if stage.control is None and stage.target is None:
            # Undriven: no frame, and H is the diagonal of interaction shifts.
            if rows.size:
                populations = np.abs(psi[..., rows]) ** 2
                occupation = occupation + (
                    duration * populations.sum(axis=-1, keepdims=True))[..., 0]
            psi = np.exp(-1j * duration * space.shift_diagonal) * psi
            continue
        h0, frame_c, frame_t = _stage_hamiltonian(space, stage.control, stage.target)
        # An undriven atom has no frame, so its velocities add nothing.
        rates = frame_c * v_c if stage.control is not None else 0.0
        if stage.target is not None:
            rates = rates + frame_t * v_t
        h = h0 - rates[..., None] * identity
        offset = frame_c * z_c + frame_t * z_t
        theta0 = offset + rates * t0
        theta1 = offset + rates * t1

        eigenvalues, vectors = np.linalg.eigh(h)
        coeffs = ((np.exp(1j * theta0) * psi)[..., None, :] @ vectors)[..., 0, :]
        if rows.size:
            occupation = occupation + _occupation_integral(
                vectors, coeffs, eigenvalues, duration, rows
            )
        phases = np.exp(-1j * duration * eigenvalues) * coeffs
        phi = (vectors @ phases[..., None])[..., 0]
        psi = np.exp(-1j * theta1) * phi
    return psi, scalar_or_array(occupation)


@dataclass(frozen=True)
class GateParams:
    """Blockade-gate drives, geometry and interaction data.

    The target's 1+3 pi train (excitation at ``omega_t``, deexcitation at
    ``-omega_t``) must fit inside the wait window, whatever the sign of
    ``omega_t``.
    """

    omega: float
    omega_dp: float
    omega_t: float
    omega_if: float
    n_gap_cycles: int
    config: AtomLaserConfig
    z0_control_um: float = 0.0
    z0_target_um: float = 0.0
    principal: Mapping[str, int] = field(
        default_factory=lambda: dict(DEFAULT_PRINCIPAL)
    )

    def __post_init__(self) -> None:
        require_finite_fields(self)
        for name in ("omega", "omega_dp", "omega_t", "omega_if"):
            if getattr(self, name) == 0:
                raise ValueError(f"{name} must be nonzero")
        target_window = 4.0 * pi_time(self.omega_t)
        if target_window > self.t_wait + 1e-12:
            raise ValueError(
                "target pulse train must fit inside the wait window: "
                f"{target_window} > {self.t_wait}"
            )

    @property
    def t_wait(self) -> float:
        return gap_wait_time(self.n_gap_cycles, self.omega_if)

    @property
    def tau_us(self) -> float:
        return self.config.species.rydberg_lifetime_us

    def pair_shift(self, level_a: str, level_b: str) -> float:
        table = self.config.interactions
        if table is None:
            raise ValueError(f"config {self.config.name!r} carries no C6 table")
        return table.shift((self.principal[level_a], self.principal[level_b]))

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
    """Total sequence length in us: the end of the control's train.

    Resilient method: pi/(sqrt(2) Omega) + t_wait + 3 pi/(sqrt(2)|Omega_dp|).
    Traditional method: pi/Omega' + t_wait + pi/Omega' with Omega' = sqrt(2) Omega.
    """
    return _trains(params, method)[0][-1].t1


def pulse_train(t0: float, *pulses: tuple[float, AtomDrive | None]) -> list[GateStage]:
    """Contiguous one-atom stages from ``t0``, one per (duration, drive)
    pair; the atom's drives ride in the ``control`` slot, as
    :func:`propagate_atom` expects."""
    stages = []
    for duration, drive in pulses:
        stages.append(GateStage(t0, t0 + duration, control=drive))
        t0 += duration
    return stages


def resilient_pair(
    omega: float,
    omega_dp: float,
    k: float,
    *wait: tuple[float, AtomDrive | None],
    t0: float = 0.0,
) -> list[GateStage]:
    """Dual-rail excite/restore from ``t0``: pi at ``omega``, an optional
    (duration, drive) wait, 3*pi at ``omega_dp``."""
    return pulse_train(
        t0,
        (pi_time(omega), AtomDrive(omega, k, OPTICAL_DUAL)),
        *wait,
        (3.0 * pi_time(omega_dp), AtomDrive(omega_dp, k, OPTICAL_DUAL)),
    )


def single_rail_restore(omega: float, k: float, t_wait: float) -> list[GateStage]:
    """Single-rail pi / idle wait / pi from t = 0, each pi pulse pi/|omega|
    long; a wait of zero adds no stage."""
    t_pi = math.pi / abs(omega)
    drive = AtomDrive(omega, k, OPTICAL_SINGLE)
    wait = ((t_wait, None),) if t_wait > 0 else ()
    return pulse_train(0.0, (t_pi, drive), *wait, (t_pi, drive))


def _trains(params: GateParams, method: Method) -> tuple[list[GateStage], list[GateStage]]:
    """The control's and the target's pulse trains of ``method``: the one
    description of each gate sequence.  The target's train starts where the
    control's wait stage (its second) opens.

    Resilient: the control runs the gap protocol, the target the restore
    pair at +-Omega_t.  Traditional (pi - 2pi - pi): the control runs the
    single-rail restore at Omega' = sqrt(2) Omega around its wait, the
    target one 2*pi pulse at Omega'.
    """
    k = params.config.wavevectors.k_excite
    if method == "dual_rail":
        ir = AtomDrive(params.omega_if, params.config.wavevectors.k_wait, INFRARED)
        control = resilient_pair(params.omega, params.omega_dp, k, (params.t_wait, ir))
        target = resilient_pair(params.omega_t, -params.omega_t, k, t0=control[1].t0)
        return control, target
    if method == "traditional":
        omega_prime = math.sqrt(2.0) * params.omega
        control = single_rail_restore(omega_prime, k, params.t_wait)
        t_pi = control[0].t1
        if params.t_wait < 2.0 * t_pi - 1e-12:
            raise ValueError(
                f"wait window ({params.t_wait:.6f} us) shorter than the "
                f"target 2*pi pulse ({2.0 * t_pi:.6f} us)"
            )
        target = pulse_train(t_pi, (2.0 * t_pi, AtomDrive(omega_prime, k, OPTICAL_SINGLE)))
        return control, target
    raise ValueError(f"unknown method {method!r}")


def _levels(train: Sequence[GateStage]) -> tuple[str, ...]:
    """The atom's ground "1" and every level its drives couple, in order
    of first appearance."""
    levels = ["1"]
    for stage in train:
        for coupling in stage.control.couplings if stage.control else ():
            levels += [level for level in coupling[:2] if level not in levels]
    return tuple(levels)


def propagate_atom(
    train: Sequence[GateStage],
    v: float | np.ndarray,
    z0: float | np.ndarray,
) -> tuple[ComplexState, float | np.ndarray]:
    """Run one atom through its pulse train from its ground "1".

    Returns the final state over the atom's levels (:func:`_levels`) and
    the time it spent in its Rydberg levels (labels starting with "r").
    The atom takes the control slot of a space whose target is the
    uncoupled spectator ("0",), and the whole train is one
    :func:`propagate_stages` call, so the coordinate z0 + v*t runs on
    across stage boundaries.  ``v`` and ``z0`` may be 1-D arrays of one
    length N, and so may a stage's end time, which samples one drive at N
    times from the same start (``dualrail excite``); the state and the
    Rydberg time then carry a leading axis of length N.
    """
    space = TwoAtomSpace(_levels(train), ("0",))
    psi, rydberg_time = propagate_stages(
        np.eye(space.dim)[0], space, train, v, 0.0, z0, 0.0, space.single_rydberg_indices()
    )
    return ComplexState(space.control_levels, psi), rydberg_time


Trains = tuple[list[GateStage], list[GateStage]]


def _lone_train(
    input_label: str, params: GateParams, trains: Trains
) -> tuple[list[GateStage], float]:
    """Pulse train and start coordinate of the one atom in |1> of input
    "10" (the control's train of ``trains``) or "01" (the target's).  The
    lone target idles on to the end of the gate: its residual Rydberg
    population keeps counting as residence time while the control
    deexcites."""
    control, target = trains
    if input_label == "10":
        return control, params.z0_control_um
    return target + [GateStage(target[-1].t1, control[-1].t1)], params.z0_target_um


def _input_stages(params: GateParams, trains: Trains) -> tuple[TwoAtomSpace, list[GateStage]]:
    """Space and stage list of input "11": the target's pulses of
    ``trains`` laid over the control's wait stage from its opening; any
    rest of the window shelves only."""
    control, target = trains
    excite, wait, *restore = control
    stages = [excite]
    stages += [GateStage(p.t0, p.t1, control=wait.control, target=p.control) for p in target]
    if wait.t1 - target[-1].t1 > 1e-12:
        stages.append(GateStage(target[-1].t1, wait.t1, control=wait.control))
    levels_c, levels_t = _levels(control), _levels(target)
    # Every level after the ground "1" is a Rydberg level.
    shifts = {(a, b): params.pair_shift(a, b) for a in levels_c[1:] for b in levels_t[1:]}
    return TwoAtomSpace(levels_c, levels_t, shifts), stages + restore


def _simulate_input(
    input_label: str,
    params: GateParams,
    trains: Trains,
    v_control: float | np.ndarray,
    v_target: float | np.ndarray,
) -> tuple[complex, float] | tuple[np.ndarray, np.ndarray]:
    """:func:`simulate_gate_input` for input "01", "10" or "11" of the gate
    whose pulse trains are ``trains``, with scalar or 1-D array velocities
    as in :func:`propagate_stages`; a scalar amplitude is a Python complex."""
    if input_label == "11":
        space, stages = _input_stages(params, trains)
        psi, t_r = propagate_stages(
            np.eye(space.dim)[0], space, stages, v_control, v_target,
            params.z0_control_um, params.z0_target_um, space.single_rydberg_indices(),
        )
        # Both atoms start in "1": basis state 0.
        return scalar_or_array(psi[..., 0]), t_r
    train, z0 = _lone_train(input_label, params, trains)
    final, t_r = propagate_atom(train, v_control if input_label == "10" else v_target, z0)
    return final.amplitude("1"), t_r


def simulate_gate_input(
    input_label: str,
    params: GateParams,
    v_control: float = 0.0,
    v_target: float = 0.0,
    method: Method = "dual_rail",
) -> tuple[complex, float]:
    """Diagonal amplitude <input|U|input> and single-Rydberg residence time.

    Atoms initialized in |0> are uncoupled spectators, so |10> reduces to
    the control's pulse train alone, |01> to the target's (idling on to the
    end of the gate), and |11> to the full two-atom space with blockade
    shifts.
    """
    if input_label not in GATE_INPUTS:
        raise ValueError(f"input must be one of {GATE_INPUTS}")
    trains = _trains(params, method)  # checked for "00" too
    if input_label == "00":
        return 1.0 + 0.0j, 0.0
    return _simulate_input(input_label, params, trains, v_control, v_target)


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
    """Run all inputs at one velocity pair and collect the metrics; the
    gate's pulse trains are built once and serve every input and the
    duration."""
    trains = _trains(params, method)
    (a, t01), (b, t10), (c, t11) = (
        _simulate_input(label, params, trains, v_control, v_target)
        for label in ("01", "10", "11")
    )
    return GateReport(
        method=method,
        a=a,
        b=b,
        c=c,
        rotation_error=rotation_error(a, b, c),
        decay_error=decay_error(t01, t10, t11, params.tau_us),
        duration_us=trains[0][-1].t1,  # as gate_duration
        rydberg_times_us={"01": t01, "10": t10, "11": t11},
        v_control=v_control,
        v_target=v_target,
    )


def velocity_grid(n_points: int = 100) -> np.ndarray:
    """Velocities equally distributed over [-0.5, 0.5] m/s, inclusive."""
    return np.linspace(-0.5, 0.5, n_points)


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
) -> RotationErrorGrid:
    """Maxwell-weighted double-grid average of the rotation error.

    The two atomic velocities run over the same uniform grid; weights are
    the product of one-dimensional Maxwell factors, normalized by their
    sum (:func:`maxwell_grid_average`).  a depends only on the target
    velocity and b only on the control velocity, so each line takes one
    batched run; c takes one batched run per grid row (one control
    velocity), which bounds the memory of a stack to one row.  Within a
    row, the stages that drive only the control atom share one
    eigendecomposition across the batch.  The error reads no residence
    time, so no run computes one: the lone lines take the engine without
    occupation rows rather than :func:`propagate_atom`.
    """
    if n_grid < 2:
        raise ValueError(f"the velocity grid needs at least 2 points, got {n_grid}")
    thermal_rms_speed(temperature_uk, params.config.species)  # rejects a bad T early
    velocities = velocity_grid(n_grid)
    trains = _trains(params, method)
    lone = {}
    for label in ("01", "10"):
        train, z0 = _lone_train(label, params, trains)
        space = TwoAtomSpace(_levels(train), ("0",))
        psi, _ = propagate_stages(np.eye(space.dim)[0], space, train, velocities, 0.0, z0, 0.0)
        lone[label] = psi[:, 0]
    space, stages = _input_stages(params, trains)
    z0 = (params.z0_control_um, params.z0_target_um)
    errors = np.empty((n_grid, n_grid))
    for i, v_c in enumerate(velocities):
        psi, _ = propagate_stages(np.eye(space.dim)[0], space, stages, v_c, velocities, *z0)
        errors[i] = rotation_error(lone["01"], lone["10"][i], psi[:, 0])

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
) -> FidelityReport:
    """Gate fidelity with the decay error taken from the zero-velocity
    residence times (they vary only weakly with velocity)."""
    grid = averaged_rotation_error(params, temperature_uk, method, n_grid)
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
