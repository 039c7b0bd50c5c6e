"""Two-qubit blockade-gate simulation and fidelity metrics.

The controlled-Z sequence excites the control atom to the Rydberg rails,
shelves it through infrared cycles while the target atom runs its own
pi + 3*pi rotation, and deexcites it with a sign-flipped amplitude: the
control runs the gap protocol and the target the excite/restore pair of
:mod:`dualrail.protocols`, built by the same pulse-train builders.  The
per-input diagonal amplitudes (a, b, c) feed a trace-formula rotation
error; Rydberg residence times feed the decay error.

Every input is one two-atom run on the exact engine of
:mod:`dualrail.engine`, at both atoms' own velocities and start
coordinates, with each atom in its own slot.  An atom in |0> is an
uncoupled spectator: its slot has no drive, so neither its velocity nor
its coordinate enters the run.  The 100 x 100 grid runs input "11" in
blocks of grid rows (control velocities on one axis against every target
velocity on the other), each block no larger than two 100-point
dual-rail rows, and several cycle counts of one gate share the stages they
have in common (:func:`rotation_error_grids`).  Each thread's block calls
write into the work arrays the engine kept from its block before.  The
blocks are split into contiguous shares, one per usable CPU: the calling
thread runs the first and a helper thread each of the others, as NumPy's
``eigh`` releases the GIL.  Each block writes only its own rows, so the
grids are the same bits for any number of shares; nothing else in the
package runs threads.

Everything about a gate that no velocity changes is its plan
(:class:`GatePlan`): the duration, and each input's space and stage
tuple.  A plan is built once per parameter set and method and cached
(parameters hash by content); :func:`gate_report`,
:func:`gate_duration` and :func:`rotation_error_grids` read it.  Only
plans are cached, never results: every call propagates its own inputs.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Literal, Sequence

import numpy as np

from dualrail.core import (
    AtomLaserConfig,
    gap_wait_time,
    maxwell_rule,
    require_finite_fields,
    scalar_or_array,
)
from dualrail.engine import (
    OPTICAL_SINGLE, AtomDrive, GateStage, TwoAtomSpace, _levels, propagate_stages,
    pulse_train, resilient_pair, single_rail_restore,
)


def __getattr__(name: str):
    # perfbench's tracer patches ProcessPoolExecutor here; it resolves on
    # lookup so that no import loads the unused process-pool machinery.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


Method = Literal["dual_rail", "traditional"]

# Principal quantum numbers keying the interaction table per rail level.
DEFAULT_PRINCIPAL = {"r1": 95, "r2": 97, "r3": 99}

# No matrix stack of a grid block holds more elements than two 100-point
# dual-rail rows (2 x 100 x 12 x 12), 18 rows of a traditional one: half
# the engine calls of one-row blocks, each writing into the work arrays
# its thread kept from the block before.  A grid runs one block per thread
# at once, so its peak memory is that bound times the number of threads.
MAX_STACK_ELEMENTS = 2 * 100 * 12 * 12


@dataclass(frozen=True)
class GateParams:
    """Blockade-gate drives, geometry and interaction data."""

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
        gap_wait_time(self.n_gap_cycles, self.omega_if)  # every gate reads its wait
        if self.config.interactions is None:
            raise ValueError(f"config {self.config.name!r} carries no C6 table")

    @property
    def t_wait(self) -> float:
        return gap_wait_time(self.n_gap_cycles, self.omega_if)

    @property
    def tau_us(self) -> float:
        return self.config.species.rydberg_lifetime_us

    def pair_shift(self, level_a: str, level_b: str) -> float:
        pair = DEFAULT_PRINCIPAL[level_a], DEFAULT_PRINCIPAL[level_b]
        return self.config.interactions.shift(pair)


def gate_duration(params: GateParams, method: Method = "dual_rail") -> float:
    """Total sequence length in us: the end of the control's train.

    Resilient method: pi/(sqrt(2) Omega) + t_wait + 3 pi/(sqrt(2)|Omega_dp|).
    Traditional method: pi/Omega' + t_wait + pi/Omega' with Omega' = sqrt(2) Omega.
    """
    return _plan(params, method).duration


def _trains(params: GateParams, method: Method) -> tuple[tuple[GateStage, ...], ...]:
    """The control's and the target's pulse trains of ``method``: the one
    description of each gate sequence.  The target's train starts where the
    control's wait stage (its second) opens.

    Resilient: the control runs the gap protocol, the target the restore
    pair at +-Omega_t.  Traditional (pi - 2pi - pi): the control runs the
    single-rail restore at Omega' = sqrt(2) Omega around its wait, the
    target one 2*pi pulse at Omega', twice the control's pi stage.
    :func:`_plan` checks that the target fits the wait window.
    """
    k = params.config.wavevectors.k_excite
    if method == "dual_rail":
        wait = params.t_wait, params.omega_if, params.config.wavevectors.k_wait
        control = resilient_pair(params.omega, params.omega_dp, k, wait)
        target = resilient_pair(params.omega_t, -params.omega_t, k, t0=control[1].t0)
        return control, target
    if method == "traditional":
        omega_prime = math.sqrt(2.0) * params.omega
        control = single_rail_restore(omega_prime, k, params.t_wait)
        t_pi = control[0].t1
        target = pulse_train(t_pi, (2.0 * t_pi, AtomDrive(omega_prime, k, OPTICAL_SINGLE)))
        return control, target
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class GatePlan:
    """The velocity-independent part of a gate: its duration and the
    (space, stages) runs of inputs "01", "10" and "11", in that order."""

    duration: float
    runs: tuple[tuple[TwoAtomSpace, tuple[GateStage, ...]], ...]


@lru_cache(maxsize=64)
def _plan(params: GateParams, method: Method) -> GatePlan:
    """The plan of the gate of ``params`` and ``method``, built once per
    pair from one set of pulse trains and shared: its stage sequences are
    tuples and its spaces' arrays read-only.

    Input "00" is the identity.  In every other input each atom keeps its
    own slot, and an atom in |0> is the uncoupled spectator ("0",).  Input
    "10" runs the control's train.  Input "01" runs the target's pulses and
    idles on to the end of the gate: its residual Rydberg population keeps
    counting as residence time while the control deexcites.  Input "11"
    lays the target's pulses over the control's wait stage from its
    opening; any rest of the window shelves only.  The target's train must
    end by the window's close, the start of the control's last pulse, for
    either method, give or take 1e-12 of that time: the roundoff of the
    stage sums, at any pulse length.  A traditional wait of zero has no
    stage, and its window closes as it opens.
    """
    control, target = _trains(params, method)
    excite, wait, *restore = control
    closes, end = control[-1].t0, control[-1].t1
    slack = 1e-12 * closes
    pulses = [GateStage(p.t0, p.t1, target=p.control) for p in target]
    if pulses[-1].t1 > closes + slack:
        raise ValueError("target pulse train must fit inside the wait window: "
                         f"it ends at {pulses[-1].t1} us, the window at {closes} us")
    pair = [excite, *(replace(p, control=wait.control) for p in pulses)]
    if closes - pulses[-1].t1 > slack:
        pair.append(GateStage(pulses[-1].t1, closes, control=wait.control))
    levels_c, levels_t = _levels(control), _levels(target)
    # Every level after the ground "1" is a Rydberg level.
    shifts = {(a, b): params.pair_shift(a, b) for a in levels_c[1:] for b in levels_t[1:]}
    return GatePlan(end, (
        (TwoAtomSpace(("0",), levels_t), (*pulses, GateStage(pulses[-1].t1, end))),
        (TwoAtomSpace(levels_c, ("0",)), control),
        (TwoAtomSpace(levels_c, levels_t, shifts), (*pair, *restore)),
    ))


def _run_input(
    run: tuple[TwoAtomSpace, tuple[GateStage, ...]],
    params: GateParams,
    v_control: float | np.ndarray,
    v_target: float | np.ndarray,
) -> tuple[complex, float] | tuple[np.ndarray, np.ndarray]:
    """Diagonal amplitude <input|U|input> and single-Rydberg residence time
    of one input's (space, stages) run at the atoms' own velocities and
    start coordinates, with scalar or 1-D array velocities as in
    :func:`propagate_stages`; a scalar amplitude is a Python complex."""
    space, stages = run
    psi, t_r = propagate_stages(space.first_state, space, stages, v_control, v_target,
                                params.z0_control_um, params.z0_target_um,
                                space.single_rydberg_indices)
    # The input is basis state 0: both slots in their first level.
    return scalar_or_array(psi[..., 0]), t_r


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
    gate's plan (:func:`_plan`) serves every input and the duration."""
    plan = _plan(params, method)
    (a, t01), (b, t10), (c, t11) = (
        _run_input(run, params, v_control, v_target) for run in plan.runs
    )
    return GateReport(
        method=method,
        a=a,
        b=b,
        c=c,
        rotation_error=rotation_error(a, b, c),
        decay_error=decay_error(t01, t10, t11, params.tau_us),
        duration_us=plan.duration,
        rydberg_times_us={"01": t01, "10": t10, "11": t11},
        v_control=v_control,
        v_target=v_target,
    )


def velocity_grid(n_points: int = 100) -> np.ndarray:
    """At least 2 velocities equally spaced over [-0.5, 0.5] m/s, inclusive."""
    if n_points < 2:
        raise ValueError(f"the velocity grid needs at least 2 points, got {n_points}")
    return np.linspace(-0.5, 0.5, n_points)


@dataclass(frozen=True)
class RotationErrorGrid:
    """Rotation errors over the (v_control, v_target) grid, their average
    and the Maxwell mass of the grid's velocities that certifies it."""

    velocities: np.ndarray
    errors: np.ndarray
    averaged: float
    weight_mass: float


def averaged_rotation_error(
    params: GateParams,
    temperature_uk: float,
    method: Method = "dual_rail",
    n_grid: int = 100,
) -> RotationErrorGrid:
    """Maxwell-weighted double-grid average of the rotation error.

    The two atomic velocities run over the same uniform grid; weights are
    the product of one-dimensional Maxwell factors from the grid's
    :func:`~dualrail.core.maxwell_rule`, which refuses a bad temperature
    before the errors (:func:`rotation_error_grids`) are computed.
    """
    velocities = velocity_grid(n_grid)
    rule = maxwell_rule(velocities, temperature_uk, params.config.species)
    errors, = rotation_error_grids(params, method, (params.n_gap_cycles,), n_grid)
    return RotationErrorGrid(velocities, errors, rule.mean(errors), rule.mass)


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
    rows as keep every matrix stack within ``MAX_STACK_ELEMENTS``: two rows
    of a 100-point dual-rail grid, 18 of a traditional one, and one row
    from 101 dual-rail points on.  Within one
    :func:`propagate_stages` call, a stage that repeats an earlier one up to
    amplitude signs reuses its eigensystem (the dual-rail target's
    deexcitation at -Omega_t; see :mod:`dualrail.engine`).

    The cycle counts' "11" stage lists agree up to the end of the target's
    train; each block runs that shared prefix once and finishes every cycle
    count from its state, which is the arithmetic of one run.  A dual-rail
    100 x 100 grid diagonalizes 10,600 matrices for one cycle count and
    11,100 for n = 1 and 2 together, in any blocks; a traditional one 900
    and 1,200, as its target's 2*pi pulse takes 100 matrices in each of
    its 6 blocks.  The reuse does not reach across calls: for a single
    cycle count the prefix is the whole stage list, so
    the traditional control's second pi pulse reuses the first's
    eigensystem, but with several counts each count's remainder is its own
    call and diagonalizes that pulse again, one matrix per control velocity
    (100 per traditional count at 100 points, 200 of the 12,300 matrices of
    ``dualrail table --which 2``).  Input "01"'s line runs once for all
    counts.  The error reads no residence time, so no run computes one:
    every line and block takes the call of :func:`_run_input` without
    occupation rows.

    The blocks run in contiguous shares (:func:`_run_shares`), one per
    usable CPU: the calling thread runs the first, and a helper thread
    started for this call each other.  Each block writes only its own
    rows, so the grids are the same bits for any split, and as many
    blocks, each within ``MAX_STACK_ELEMENTS``, are in flight at once as
    there are shares.  A thread's blocks of one shape write into the work
    arrays the engine kept for it from the block before (see
    :func:`~dualrail.engine.propagate_stages`), the same bits as new ones.
    """
    if not cycle_counts:
        raise ValueError("rotation_error_grids needs at least one cycle count")
    velocities = velocity_grid(n_grid)
    z0 = params.z0_control_um, params.z0_target_um
    plans = [_plan(replace(params, n_gap_cycles=n), method).runs for n in cycle_counts]
    # a reads only the target's velocity and b only the control's: one line
    # each.  Input "01"'s differs between counts only in its undriven tail,
    # which the spectator space shifts by nothing: one run serves all.
    a, *b = (propagate_stages(atom.first_state, atom, train, velocities, velocities, *z0)[0][:, 0]
             for atom, train in (plans[0][0], *(p[1] for p in plans)))
    runs = [(a, b_n, stages) for b_n, (*_, (_, stages)) in zip(b, plans)]
    space = plans[0][2][0]  # the same space for every count
    first = runs[0][2]
    shared = 0
    while all(shared < len(stages) and stages[shared] == first[shared] for *_, stages in runs):
        shared += 1
    block = max(1, MAX_STACK_ELEMENTS // (n_grid * space.dim ** 2))
    errors = [np.empty((n_grid, n_grid)) for _ in runs]
    v_t = velocities[None, :]

    def run_blocks(starts: range) -> None:
        for start in starts:
            rows = slice(start, start + block)
            v_c = velocities[rows, None]
            prefix, _ = propagate_stages(space.first_state, space, first[:shared],
                                         v_c, v_t, *z0)
            for (a, b, stages), grid in zip(runs, errors):
                psi = prefix
                if len(stages) > shared:
                    psi, _ = propagate_stages(prefix, space, stages[shared:], v_c, v_t, *z0)
                grid[rows] = rotation_error(a, b[rows, None], psi[..., 0])

    _run_shares(run_blocks, range(0, n_grid, block))
    return errors


def _workers(n_items: int) -> int:
    """How many threads share ``n_items`` blocks: the CPUs this process may
    run on, and no more than one per block."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_items))


def _run_shares(work: Callable[[range], None], items: range) -> None:
    """Run ``work`` over ``items`` split into :func:`_workers` contiguous
    shares: the calling thread runs the first, one helper thread each of
    the others.

    The helpers start per call and are joined before this returns or
    raises, so no thread outlives the call.  Each runs in a copy of the
    caller's context, so NumPy's error state (a context variable) is the
    caller's.  After the join, the first failed helper's exception is
    raised in the caller, unless the caller's own share raised first.
    """
    workers = _workers(len(items))
    cuts = [len(items) * i // workers for i in range(workers + 1)]
    shares = [items[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    failures: list[BaseException | None] = [None] * len(shares)

    def helper(index: int) -> None:
        try:
            work(shares[index])
        except BaseException as exc:
            failures[index] = exc

    threads = []
    try:
        for index in range(1, len(shares)):
            thread = threading.Thread(target=contextvars.copy_context().run,
                                      args=(helper, index))
            thread.start()
            threads.append(thread)
        work(shares[0])
    finally:
        for thread in threads:
            thread.join()
    for failure in failures:
        if failure is not None:
            raise failure
