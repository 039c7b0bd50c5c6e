"""Two-qubit blockade-gate simulation and fidelity metrics.

The controlled-Z sequence excites the control atom to the Rydberg rails,
shelves it through infrared cycles while the target atom runs its own
pi + 3*pi rotation, and deexcites it with a sign-flipped amplitude: the
control runs the gap protocol and the target the excite/restore pair of
:mod:`dualrail.protocols`, built by the same pulse-train builders.  The
per-input diagonal amplitudes (a, b, c) feed a trace-formula rotation
error; Rydberg residence times feed the decay error.

Every input runs on the exact engine of :mod:`dualrail.engine`.  The
100 x 100 grid runs input "11" in blocks of grid rows (control velocities
on one axis against every target velocity on the other), each block no
larger than one 100-point dual-rail row, and several cycle counts of one
gate share the stages they have in common (:func:`rotation_error_grids`).
:func:`gate_report` builds the gate's pulse trains once for its three
inputs and its duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal, Sequence

import numpy as np

from dualrail.core import (
    AtomLaserConfig,
    gap_wait_time,
    maxwell_mean,
    require_finite_fields,
    scalar_or_array,
    thermal_rms_speed,
)
from dualrail.engine import (
    INFRARED, OPTICAL_SINGLE, AtomDrive, GateStage, TwoAtomSpace, _levels, pi_time,
    propagate_atom, propagate_stages, pulse_train, resilient_pair, single_rail_restore,
)


def __getattr__(name: str):
    # perfbench's tracer patches ProcessPoolExecutor here; it resolves on
    # lookup so that no import loads the unused process-pool machinery.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


Method = Literal["dual_rail", "traditional"]

GATE_INPUTS = ("00", "01", "10", "11")

# Principal quantum numbers keying the interaction table per rail level.
DEFAULT_PRINCIPAL = {"r1": 95, "r2": 97, "r3": 99}

# No matrix stack of a grid run holds more elements than one 100-point
# dual-rail row (100 x 12 x 12): the bound on a grid's peak memory.
MAX_STACK_ELEMENTS = 100 * 12 * 12


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
        return table.shift((DEFAULT_PRINCIPAL[level_a], DEFAULT_PRINCIPAL[level_b]))


def gate_duration(params: GateParams, method: Method = "dual_rail") -> float:
    """Total sequence length in us: the end of the control's train.

    Resilient method: pi/(sqrt(2) Omega) + t_wait + 3 pi/(sqrt(2)|Omega_dp|).
    Traditional method: pi/Omega' + t_wait + pi/Omega' with Omega' = sqrt(2) Omega.
    """
    return _trains(params, method)[0][-1].t1


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
            space.first_state, space, stages, v_control, v_target,
            params.z0_control_um, params.z0_target_um, space.single_rydberg_indices,
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


def averaged_rotation_error(
    params: GateParams,
    temperature_uk: float,
    method: Method = "dual_rail",
    n_grid: int = 100,
) -> RotationErrorGrid:
    """Maxwell-weighted double-grid average of the rotation error.

    The two atomic velocities run over the same uniform grid; weights are
    the product of one-dimensional Maxwell factors, normalized by their
    sum (:func:`~dualrail.core.maxwell_mean`).  The grid is
    :func:`rotation_error_grids` at the gate's own cycle count.
    """
    thermal_rms_speed(temperature_uk, params.config.species)  # rejects a bad T early
    errors, = rotation_error_grids(params, method, (params.n_gap_cycles,), n_grid)
    velocities = velocity_grid(n_grid)
    averaged = maxwell_mean(errors, velocities, temperature_uk, params.config.species)
    return RotationErrorGrid(velocities, errors, averaged)


def rotation_error_grids(
    params: GateParams,
    method: Method,
    cycle_counts: Sequence[int],
    n_grid: int = 100,
) -> list[np.ndarray]:
    """Rotation errors over the (v_control, v_target) grid of
    :func:`velocity_grid` for the gate of ``params`` at each cycle count.

    a depends only on the target velocity and b only on the control
    velocity, so each line takes one batched run.  c runs in blocks of grid
    rows, the control velocities of the block on one axis and every target
    velocity on the other, so each stage diagonalizes only over the
    velocities its drives see: a stage that drives only the control takes
    one matrix per row, and the traditional target's 2*pi pulse, which
    drives only the target, one per target velocity.  A block holds as many
    rows as keep every matrix stack within ``MAX_STACK_ELEMENTS``: one row
    of a 100-point dual-rail grid, nine of a traditional one.  Within one
    :func:`propagate_stages` call, a stage that repeats an earlier one up to
    amplitude signs reuses its eigensystem (the dual-rail target's
    deexcitation at -Omega_t; see :mod:`dualrail.engine`).

    The cycle counts' "11" stage lists agree up to the end of the target's
    train; each block runs that shared prefix once and finishes every cycle
    count from its state, which is the arithmetic of one run.  A dual-rail
    100 x 100 grid diagonalizes 10,600 matrices for one cycle count and
    11,200 for n = 1 and 2 together.  The reuse does not reach across
    calls: for a single cycle count the prefix is the whole stage list, so
    the traditional control's second pi pulse reuses the first's
    eigensystem, but with several counts each count's remainder is its own
    call and diagonalizes that pulse again, one matrix per control velocity
    (100 per traditional count at 100 points, 200 of the 13,100 matrices of
    ``dualrail table --which 2``).  The error reads no residence time, so
    no run computes one: the lone lines take the engine without occupation
    rows rather than :func:`propagate_atom`.
    """
    if n_grid < 2:
        raise ValueError(f"the velocity grid needs at least 2 points, got {n_grid}")
    velocities = velocity_grid(n_grid)
    runs = []
    for n_cycles in cycle_counts:
        gate = replace(params, n_gap_cycles=n_cycles)
        trains = _trains(gate, method)
        lone = {}
        for label in ("01", "10"):
            train, z0 = _lone_train(label, gate, trains)
            atom = TwoAtomSpace(_levels(train), ("0",))
            psi, _ = propagate_stages(atom.first_state, atom, train, velocities, 0.0, z0, 0.0)
            lone[label] = psi[:, 0]
        space, stages = _input_stages(gate, trains)  # the same space for every count
        runs.append((lone, stages))
    first = runs[0][1]
    shared = 0
    while all(shared < len(stages) and stages[shared] == first[shared] for _, stages in runs):
        shared += 1
    z0 = (params.z0_control_um, params.z0_target_um)
    block = max(1, MAX_STACK_ELEMENTS // (n_grid * space.dim ** 2))
    errors = [np.empty((n_grid, n_grid)) for _ in runs]
    v_t = velocities[None, :]
    for start in range(0, n_grid, block):
        rows = slice(start, start + block)
        v_c = velocities[rows, None]
        prefix, _ = propagate_stages(space.first_state, space, first[:shared], v_c, v_t, *z0)
        for (lone, stages), grid in zip(runs, errors):
            psi = prefix
            if len(stages) > shared:
                psi, _ = propagate_stages(prefix, space, stages[shared:], v_c, v_t, *z0)
            grid[rows] = rotation_error(lone["01"], lone["10"][rows, None], psi[..., 0])
    return errors
