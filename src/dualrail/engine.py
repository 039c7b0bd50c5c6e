"""The exact propagation engine that every protocol and the gate run on.

A run is a list of stages (:class:`GateStage`) with optional control and
target drives (:class:`AtomDrive`) over a two-atom basis
(:class:`TwoAtomSpace`).  :func:`pulse_train` and its cached wrappers build
one atom's train, a tuple, and :func:`propagate_atom` runs it in one call:
every single-atom protocol.  Each gate input is one two-atom run, in which
an atom in |0> is an uncoupled spectator.

Per-stage rotating frames absorb every drive phase k*(z0 + v*t) into level
phases that grow linearly in time, leaving a time-independent real
symmetric Hamiltonian: half-amplitudes off the diagonal, the Doppler rates
-k*v per rail and the interaction shifts on it.  One eigendecomposition per
stage gives the exact propagator and, for the rows a caller asks for, the
exact time-integrated Rydberg occupation, which never feeds back into the
state (a caller that asks for none pays nothing for it).

What no velocity changes is compiled once per space and stage tuple
(:func:`_run_program`): the in-frame Hamiltonians, frame rates, stage
times, durations and undriven propagators and, as flipping the sign of
one atom's amplitude is the exact diagonal similarity H(-amp) = S H(+amp) S
with S = +-1, which stages share an eigensystem up to such a flip (the
gate's target deexcitation at -Omega_t after its excitation at +Omega_t).  A call does its velocity
arithmetic in one stacked pass per group of stages (one ``eigh`` over the
group's distinct Hamiltonians at the velocities they see, and the frame
phases with each stage's flip S folded in), then a stage loop that only
projects and multiplies, one step per driven stage, then one stacked
occupation integral per group.  Drives, stages and spaces keep their
hashes, so a stage tuple's program is one cache lookup.

A batched call writes its pass's four largest arrays per group (the
shifted Hamiltonians, the frame-phase argument, the frame phases and the
complex eigenvectors) into the ones its thread kept from its last batched
call, when that call's group at the same position had the same shapes,
and keeps them for the next: a grid's row blocks, one call each, stop
allocating and faulting them in anew.  Each element is written over with
the operation that would have made it, so the bits are those of new
arrays; no returned array is a view of a kept one.

A call with one state vector (scalar velocities and coordinates, a 1-D
state, no sampled end times) is what ``dualrail gap --v`` and every
``gate_report`` input make.  It runs the same operations on the same
operands, bit for bit, and skips only the batch bookkeeping: no batch
axes on the products, its stage occupations added as Python floats.

:func:`counting` opens a window that records the engine's work: calls,
stages, ``eigh`` calls and matrices, reused eigensystems and the largest
norm defect of the final states (NaN for good once one holds a NaN).
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from dualrail.core import scalar_or_array

SINGLE_RAIL_BASIS = ("1", "r1")
DUAL_RAIL_BASIS = ("r2", "r1", "1")

# Coupling topologies: (anchor_level, driven_level, wavevector_sign).
OPTICAL_DUAL = (("1", "r1", +1), ("1", "r2", -1))
OPTICAL_SINGLE = (("1", "r1", +1),)
INFRARED = (("r3", "r1", +1), ("r3", "r2", -1))
# A stage's frame-phase exponents: +i theta0 on the way in, -i theta1 out.
_FRAME_SIGNS = np.array([[1j], [-1j]])


def pi_time(omega: float, rails: int = 2) -> float:
    """Duration pi/(sqrt(rails)|Omega|) of a pi pulse on one or two rails:
    the dual rail is a ground-Rydberg transition at sqrt(2)*Omega.  A zero
    or non-finite amplitude raises ValueError."""
    if omega == 0:
        raise ValueError("a zero Rabi amplitude has no pulse length")
    if not math.isfinite(omega):
        raise ValueError(f"a Rabi amplitude must be finite, got {omega}")
    return math.pi / (math.sqrt(rails) * abs(omega))


def dual_rail_rotation() -> np.ndarray:
    """Unitary mapping the (r2, r1, 1) basis onto (r-, r+, 1).

    Satisfies R @ h_four_field(t, W, ...) @ R.conj().T
    == h_dual_rail(t, sqrt(2)*W, ...) for all arguments (the lab-frame
    builders of :mod:`dualrail.hamiltonians`).
    """
    s = 1.0 / math.sqrt(2.0)
    return np.array(
        [[-s, s, 0.0], [s, s, 0.0], [0.0, 0.0, 1.0]], dtype=complex
    )


@dataclass(frozen=True)
class ComplexState:
    """Complex amplitudes over a named level basis, optionally with
    leading batch axes (one state per batch entry; the accessors return
    arrays of the batch shape)."""

    basis: tuple[str, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim == 0 or amps.shape[-1] != len(self.basis):
            raise ValueError("amplitude vector does not match basis size")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_label(cls, basis: Sequence[str], label: str) -> "ComplexState":
        basis = tuple(basis)
        amps = np.zeros(len(basis), dtype=complex)
        amps[basis.index(label)] = 1.0
        return cls(basis, amps)

    def amplitude(self, label: str) -> complex | np.ndarray:
        return scalar_or_array(self.amplitudes[..., self.basis.index(label)])

    def population(self, label: str) -> float | np.ndarray:
        return abs(self.amplitude(label)) ** 2

    def phase(self, label: str) -> float | np.ndarray:
        return scalar_or_array(np.angle(self.amplitude(label)))

    @property
    def norm(self) -> float | np.ndarray:
        return scalar_or_array(np.linalg.norm(self.amplitudes, axis=-1))


def _hash_once(cls: type) -> type:
    """Keep a frozen dataclass's field hash once computed: drives, stage
    lists and spaces key the engine's compiled programs on every call, and
    the generated hash would rebuild and rehash every nested field each
    time.  A value that does not hash (array stage times) keeps raising
    TypeError.  The kept hash is not pickled, as string hashes differ
    between processes."""
    field_hash = cls.__hash__

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", field_hash(self))
            return self._hash

    def __getstate__(self) -> dict:
        return {name: value for name, value in vars(self).items() if name != "_hash"}

    cls.__hash__, cls.__getstate__ = __hash__, __getstate__
    return cls


@_hash_once
@dataclass(frozen=True)
class AtomDrive:
    """One atom's drive during a stage: amplitude, wavevector, topology."""

    amp: float
    k: float
    couplings: tuple[tuple[str, str, int], ...]


@_hash_once
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


@_hash_once
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
        """Interaction shift of every basis state, in basis order, read-only."""
        shifts = dict(self.shifts)
        diagonal = np.array([shifts.get(label, 0.0) for label in self.labels()])
        diagonal.flags.writeable = False
        return diagonal

    @cached_property
    def identity(self) -> np.ndarray:
        """The dim x dim identity, read-only."""
        identity = np.eye(self.dim)
        identity.flags.writeable = False
        return identity

    @property
    def first_state(self) -> np.ndarray:
        """Basis state 0, both atoms in their first level, as a read-only
        unit vector (a row of :attr:`identity`)."""
        return self.identity[0]

    @cached_property
    def single_rydberg_indices(self) -> np.ndarray:
        """Basis indices of the states with exactly one atom in a Rydberg
        level (labels starting with "r"), read-only."""
        indices = np.array([i for i, (c, t) in enumerate(self.labels())
                            if c.startswith("r") != t.startswith("r")], dtype=int)
        indices.flags.writeable = False
        return indices


def _sign_free_key(
    space: TwoAtomSpace, control: AtomDrive | None, target: AtomDrive | None
) -> tuple[tuple[AtomDrive | None, AtomDrive | None], np.ndarray]:
    """Key of a stage's drives that holds no amplitude sign, and the
    stage's sign vector relative to it.

    Flipping the sign of one atom's amplitude is the exact diagonal
    similarity H(-amp) = S H(+amp) S, with S = -1 on the levels the drive's
    couplings drive (times the identity on the other atom) and +1
    elsewhere: the frame rates, the interaction shifts and the other atom's
    couplings all commute with S.  The key holds every negative amplitude
    flipped; ``signs`` is the diagonal of the product of those flips' S, so
    the stage's eigenvectors are the key's with their rows times ``signs``.
    A drive whose coupling graph is not two-sided (a level both anchors a
    coupling and is driven by one) keeps its sign.
    """
    key, atom_signs = [], []
    for drive, levels in ((control, space.control_levels), (target, space.target_levels)):
        signs = np.ones(len(levels))
        if drive is not None and drive.amp < 0:
            anchors = {anchor for anchor, _, _ in drive.couplings}
            driven = {level for _, level, _ in drive.couplings}
            if not anchors & driven:
                signs[[levels.index(level) for level in driven]] = -1.0
                drive = AtomDrive(-drive.amp, drive.k, drive.couplings)
        key.append(drive)
        atom_signs.append(signs)
    return tuple(key), np.outer(*atom_signs).ravel()


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


def _occupation_integral(
    vectors: np.ndarray,
    coeffs: np.ndarray,
    eigenvalues: np.ndarray,
    duration: float | np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """Exact integral of the summed populations of ``rows`` over a stage,
    for one eigensystem or a stack of them (leading batch axes); an array
    ``duration`` has a trailing axis of length 1, as in
    :func:`propagate_stages`."""
    gaps = eigenvalues[..., :, None] - eigenvalues[..., None, :]
    small = np.abs(gaps) < 1e-12
    safe = np.add(gaps, small, out=gaps)
    if isinstance(duration, np.ndarray):  # (..., 1): one per stage or end time
        duration = duration[..., None]
    # 1j (e^{-i d s} - 1) / s, each step in place on one buffer (a stacked
    # call's temporaries stay few); d * s first, a real product with the
    # bits of (-1j * d) * s.
    integrals = np.multiply(-1j, duration * safe)
    np.exp(integrals, out=integrals)
    np.subtract(integrals, 1.0, out=integrals)
    np.divide(integrals, safe, out=integrals)
    np.multiply(1j, integrals, out=integrals)
    np.copyto(integrals, duration, where=small)
    amps = vectors[..., rows, :] * coeffs[..., None, :]
    weighted = amps @ integrals
    weighted *= np.conjugate(amps, out=amps)
    return np.real(weighted.sum(axis=(-2, -1)))


class _Group(NamedTuple):
    """Driven stages of a run that share a batch shape: whether any of them
    drives the control and the target, their positions, the frame-rate rows
    and in-frame Hamiltonians of their distinct drives, ``slots`` mapping
    each stage to its Hamiltonian (None if each has its own), ``signs``,
    each stage's +-1 flip (None if no stage flips), and the stages' clock:
    their times with a trailing axis for the levels, (stage, t0 and t1, 1)
    or (N, stage, t0 and t1, 1) if N end times are sampled, their durations
    and -1j times the durations."""

    sees: tuple[bool, bool]
    stages: tuple[int, ...]
    frame_c: np.ndarray  # (distinct, dim)
    frame_t: np.ndarray  # (distinct, dim)
    hamiltonians: np.ndarray  # (distinct, dim, dim)
    slots: np.ndarray | None  # (stage,)
    signs: np.ndarray | None  # (stage, 1, dim)
    times: np.ndarray  # ([N,] stage, 2, 1)
    duration: np.ndarray  # ([N,] stage, 1)
    rotation: np.ndarray  # -1j * duration


class _Run(NamedTuple):
    """A stage list compiled for one space and one answer to whether both
    atoms' velocities share a shape, its arrays read-only: the groups; per
    stage None (undriven) or (group, position in it, slot); per stage None
    if it is driven, else its duration and its propagator, the phases of
    the interaction shifts; whether every time is a number; and how many
    stages reuse an earlier eigensystem."""

    groups: tuple[_Group, ...]
    steps: tuple
    idles: tuple
    scalar_times: bool
    reused: int


@lru_cache(maxsize=256)
def _run_program(space: TwoAtomSpace, stages: tuple[GateStage, ...], merged: bool) -> _Run:
    """The run of ``stages`` in ``space``, compiled once per stage tuple (by
    content, through :func:`_cached`).  With ``merged`` (both atoms'
    velocities have one shape) the driven stages are one group, else one
    per set of driven atoms.  A stage whose drives match an earlier one's
    up to amplitude signs (:func:`_sign_free_key`) takes its slot, and its
    sign vector times the earlier one's is the +-1 flip that carries the
    stored eigenvectors to its own (all ones for the stage that fills a
    slot)."""
    members, steps, slots, idles = {}, [], {}, []
    for i, stage in enumerate(stages):
        control, target = stage.control, stage.target
        if control is None and target is None:
            # Undriven: no frame, and H is the diagonal of interaction shifts.
            duration = np.asarray(stage.duration, dtype=float)[..., None]
            idles.append((duration, np.exp(-1j * duration * space.shift_diagonal)))
            steps.append(None)
            continue
        idles.append(None)
        # Equal sign-free keys drive the same atoms: a slot stays in its group.
        sees = (control is not None, target is not None)
        driven, distinct, flips = members.setdefault(merged or sees, ([], [], []))
        key, signs = _sign_free_key(space, control, target)
        if key not in slots:
            slots[key] = len(distinct), signs
            distinct.append((*_build_hamiltonian(space, control, target), sees))
        slot, first_signs = slots[key]
        steps.append((list(members).index(merged or sees), len(driven), slot))
        driven.append((i, slot))
        flips.append(first_signs * signs)
    groups = []
    for driven, distinct, flips in members.values():
        positions, stage_slots = zip(*driven)
        hamiltonians, frame_c, frame_t, sees = zip(*distinct)
        signs = np.array(flips)[:, None, :]
        times = [(stages[i].t0, stages[i].t1) for i in positions]
        try:  # (stage, t0 and t1), or (N, stage, t0 and t1) if N end times are sampled
            times = np.array(times, dtype=float)
        except ValueError:
            flat = np.broadcast_arrays(*(t for pair in times for t in pair))
            times = np.moveaxis(np.reshape(flat, (len(times), 2, -1)), -1, 0)
        duration = times[..., 1:] - times[..., :1]
        groups.append(_Group(tuple(map(any, zip(*sees))), positions,
                             np.array(frame_c), np.array(frame_t), np.array(hamiltonians),
                             np.array(stage_slots) if len(distinct) < len(driven) else None,
                             signs if (signs < 0).any() else None,
                             times[..., None], duration, -1j * duration))
    arrays = [array for group in groups for array in group[2:]]
    for array in arrays + [array for idle in idles if idle for array in idle]:
        if array is not None:
            array.flags.writeable = False
    scalar_times = (all(group.duration.ndim == 2 for group in groups)
                    and all(idle is None or idle[0].ndim == 1 for idle in idles))
    reused = sum(len(group.stages) - len(group.hamiltonians) for group in groups)
    return _Run(tuple(groups), tuple(steps), tuple(idles), scalar_times, reused)


def _cached(function: Callable, *key):
    """``function(*key)`` through its cache, or computed for this call
    alone when the key does not hash: array stage times (``dualrail
    excite``'s sampled end times)."""
    try:
        return function(*key)
    except TypeError:
        return function.__wrapped__(*key)


@dataclass(eq=False)
class WorkRecord:
    """The work of the :func:`propagate_stages` calls made while a
    :func:`counting` window is open: calls, stages, ``eigh`` calls and the
    matrices they diagonalized, stages that reused an earlier stage's
    eigensystem, and the largest | |psi| - 1 | over the calls' final
    states, which turns NaN for good at the first final state that holds
    a NaN."""

    calls: int = 0
    stages: int = 0
    eigh_calls: int = 0
    eigh_matrices: int = 0
    reused: int = 0
    max_norm_defect: float = 0.0

    def add(self, stages: int, eigh_calls: int, matrices: int, reused: int,
            defect: float) -> None:
        self.calls += 1
        self.stages += stages
        self.eigh_calls += eigh_calls
        self.eigh_matrices += matrices
        self.reused += reused
        # max() would drop a NaN defect (NaN compares false): it sticks.
        if defect > self.max_norm_defect or math.isnan(defect):
            self.max_norm_defect = defect


# The engine's record: the open counting() windows.  Grid blocks run on
# helper threads, so every window is added to under the lock.
_WINDOWS: list[WorkRecord] = []
_WINDOWS_LOCK = threading.Lock()

# Per thread, the work arrays of its last batched propagate_stages call,
# by group position: (the shapes they were made for, the shifted
# Hamiltonians, the frame-phase argument, the frame phases, the complex
# eigenvectors).  A helper thread's arrays go with the thread.
_KEPT = threading.local()


@contextmanager
def counting() -> Iterator[WorkRecord]:
    """Count the engine's work while the block is open, in every thread:
    ``with counting() as work:`` leaves ``work`` the :class:`WorkRecord`
    of the :func:`propagate_stages` calls made meanwhile.  Windows may nest
    or overlap, and each counts every call it sees; with none open, a call
    counts nothing and pays nothing for it."""
    record = WorkRecord()
    with _WINDOWS_LOCK:
        _WINDOWS.append(record)
    try:
        yield record
    finally:
        with _WINDOWS_LOCK:
            _WINDOWS.remove(record)


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

    The velocities and initial coordinates are scalars or arrays that
    broadcast against each other to a batch shape B, such as ``v[:, None]``
    for the control against ``v[None, :]`` for the target.  Every run
    starts from ``psi``, which may carry the batch axes too, and the results
    are a B + (dim,) state stack and a B-shaped occupation array.  A stage's
    ``t0`` and ``t1`` may be 1-D arrays of length N too:
    ``[GateStage(0.0, ts, drive)]`` gives the state at every end time in
    ``ts`` from one eigendecomposition.  The state is always a new
    writeable array, never ``psi``.

    The run's program (:func:`_run_program`: Hamiltonians, frame rates,
    times, durations, the undriven stages' propagators) is compiled once
    per space and stage tuple.  A call first does its velocity arithmetic
    in one stacked pass per group of driven stages (rates, frame phases
    times each stage's +-1 flip, one ``eigh`` over the group's distinct
    Hamiltonians, eigenphases, the eigenvectors made complex once for the
    stage products): one group when both atoms'
    velocities have one shape, scalars included, else one per set of
    driven atoms, so that a stage diagonalizes one matrix per velocity it
    sees (one per target velocity, not per pair, for a target-only stage).
    The stage loop then only projects and multiplies, and the state takes
    the batch axes only as stages reach them.  A call with batch axes
    writes each group's shifted Hamiltonians, frame-phase argument, frame
    phases and complex eigenvectors into the arrays its thread kept for
    that group position from its last batched call, if they were made for
    the same rate, offset and clock shapes, and else keeps new ones: at
    most one array per role and group position per thread.  The returned
    state and occupation are always new arrays.

    One state vector (scalar velocities and coordinates, a 1-D ``psi`` and
    no sampled end times) runs the same products without the batch axes:
    the occupation is a Python float, its stage terms added in stage
    order, and the state ``psi + 0.0``, the bits of the broadcast that a
    batched call ends with.

    Splitting a stage list into two calls, the second starting from the
    first's state, is the same arithmetic as one call; only the eigensystem
    reuse does not reach across calls.  The occupation is computed only for
    the rows asked for; with none it is 0 and costs nothing, and the state
    is the same, bit for bit.  With rows, each group takes one
    :func:`_occupation_integral` call, and the stages' terms, undriven ones
    included, are added in stage order, as a stage-by-stage integral adds
    them.  While a :func:`counting` window is open the call adds its work
    to it.
    """
    v_c, v_t, z_c, z_t = inputs = (v_control, v_target, z0_control, z0_target)
    # Python floats multiply as 0-d arrays do: scalar calls skip the
    # conversion and broadcast_shapes, whose microseconds they would feel.
    batch, merged = (), True
    if not all(type(x) is float for x in inputs):
        v_c, v_t, z_c, z_t = (np.asarray(x, dtype=float) for x in inputs)
        shapes = (v_c.shape, v_t.shape, z_c.shape, z_t.shape)
        if any(shapes):  # stacked arrays are (batch..., stage, level)
            batch = np.broadcast_shapes(*shapes)
            v_c, v_t, z_c, z_t = (x[..., None, None] for x in (v_c, v_t, z_c, z_t))
        merged = v_c.shape == v_t.shape
    run = _cached(_run_program, space, tuple(stages), merged)
    psi = np.asarray(psi, dtype=complex)
    single = not batch and psi.ndim == 1 and run.scalar_times
    passes, matrices = [], 0
    kept = _KEPT.__dict__ if batch else None  # this thread's work arrays
    for g, group in enumerate(run.groups):
        # A stage's rates are the Doppler terms of the atoms it drives: an
        # atom it does not drive has an all-zero frame row.
        sees_c, sees_t = group.sees
        rates = group.frame_c * v_c if sees_c else 0.0
        if sees_t:
            rates = rates + group.frame_t * v_t
        offset = group.frame_c * z_c + group.frame_t * z_t
        # The shapes fix those of the four work arrays: a kept set made for
        # them is written over, element for element, else the arrays are new
        # (and the old set is let go first, so that they can take its place).
        work = None
        if kept is not None:
            shapes = rates.shape, offset.shape, group.times.shape
            work = kept.get(g)
            if work is not None and work[0] != shapes:
                work = kept[g] = None
        if work is None:
            hamiltonians = group.hamiltonians - rates[..., None] * space.identity
        else:
            hamiltonians = np.multiply(rates[..., None], space.identity, out=work[1])
            np.subtract(group.hamiltonians, hamiltonians, out=hamiltonians)
        eigenvalues, vectors = np.linalg.eigh(hamiltonians)
        matrices += hamiltonians.size // space.identity.size
        if group.slots is not None:  # from each Hamiltonian to each of its stages
            rates, offset, eigenvalues = (x[..., group.slots, :]
                                          for x in (rates, offset, eigenvalues))
        if work is None:
            argument = offset[..., None, :] + rates[..., None, :] * group.times
            frame = np.exp(_FRAME_SIGNS * argument)
            # Complex once, the cast each stage product would make of them.
            vectors = vectors.astype(complex)
            if kept is not None:
                kept[g] = shapes, hamiltonians, argument, frame, vectors
        else:
            _, _, argument, frame, complex_vectors = work
            np.multiply(rates[..., None, :], group.times, out=argument)
            np.add(offset[..., None, :], argument, out=argument)
            np.exp(np.multiply(_FRAME_SIGNS, argument, out=frame), out=frame)
            np.copyto(complex_vectors, vectors)
            vectors = complex_vectors
        if group.signs is not None:
            # The stored eigenvectors with rows times a stage's flip are its
            # own: the +-1 goes on both of its frame phases, exactly.
            frame *= group.signs
        passes.append((frame, np.exp(group.rotation * eigenvalues), eigenvalues,
                       vectors, group.duration, []))
    rows = np.asarray(occupation_rows, dtype=int)
    terms = []  # per stage: an undriven term, or the (group, position) of a driven one
    for step, idle in zip(run.steps, run.idles):
        if step is None:
            duration, propagator = idle
            if rows.size:
                populations = np.abs(psi[..., rows]) ** 2
                terms.append((duration * populations.sum(axis=-1, keepdims=True))[..., 0])
            psi = propagator * psi
            continue
        g, j, slot = step
        frame, phases, _, vectors, _, coefficients = passes[g]
        vectors = vectors[..., slot, :, :]
        if single:  # the same products, without the batch axes
            psi = frame[j, 0] * psi
            coeffs = psi @ vectors
            turned = vectors @ (phases[j] * coeffs)
        else:
            psi = frame[..., j, 0, :] * psi
            coeffs = (psi[..., None, :] @ vectors)[..., 0, :]
            turned = (vectors @ (phases[..., j, :] * coeffs)[..., None])[..., 0]
        if rows.size:
            # A row's sign cancels in its population: the stored vectors do.
            terms.append((g, j))
            coefficients.append(coeffs)
        psi = frame[..., j, 1, :] * turned
    occupation = 0.0 if single else np.zeros(batch)
    if rows.size:
        integrals = []
        for group, (*_, eigenvalues, vectors, duration, coefficients) in zip(run.groups, passes):
            if group.slots is not None:
                vectors = vectors[..., group.slots, :, :]
            if not single and len({coeffs.shape for coeffs in coefficients}) > 1:
                coefficients = np.broadcast_arrays(*coefficients)
            coefficients = np.array(coefficients)  # the cheap stack, stage axis first
            if coefficients.ndim > 2:
                coefficients = np.moveaxis(coefficients, 0, -2)
            integral = _occupation_integral(vectors, coefficients, eigenvalues, duration, rows)
            integrals.append(integral.tolist() if single else integral)
        for term in terms:
            if isinstance(term, tuple):
                g, j = term
                term = integrals[g][j] if single else integrals[g][..., j]
            occupation = occupation + term
    if single:  # a new array, with the signed zeros of the broadcast below
        psi, occupation = psi + 0.0, float(occupation)
    else:
        psi = np.zeros(batch + (space.dim,), dtype=complex) + psi
        occupation = scalar_or_array(occupation)
    if _WINDOWS:
        _count(run, len(stages), matrices, psi)
    return psi, occupation


def _count(run: _Run, stages: int, matrices: int, psi: np.ndarray) -> None:
    """Add one call's work, with the norm defect of its final states, to
    every open :func:`counting` window."""
    if psi.ndim == 1:
        defect = abs(math.sqrt(np.vdot(psi, psi).real) - 1.0)
    else:
        defect = float(np.max(np.abs(np.linalg.norm(psi, axis=-1) - 1.0), initial=0.0))
    with _WINDOWS_LOCK:
        for window in _WINDOWS:
            window.add(stages, len(run.groups), matrices, run.reused, defect)


def pulse_train(t0: float, *pulses: tuple[float, AtomDrive | None]) -> tuple[GateStage, ...]:
    """Contiguous one-atom stages from ``t0``, one per (duration, drive)
    pair; the atom's drives ride in the ``control`` slot, as
    :func:`propagate_atom` expects."""
    stages = []
    for duration, drive in pulses:
        stages.append(GateStage(t0, t0 + duration, control=drive))
        t0 += duration
    return tuple(stages)


@lru_cache(maxsize=256)
def resilient_pair(
    omega: float,
    omega_dp: float,
    k: float,
    wait: tuple[float, float, float] | None = None,
    t0: float = 0.0,
) -> tuple[GateStage, ...]:
    """Dual-rail excite/restore from ``t0``: pi at ``omega``, an optional
    infrared wait given as numbers (duration, Omega_IF, k_wait), 3*pi at
    ``omega_dp``.  A wait of zero keeps its zero-length stage; no wait adds
    none.  One shared tuple per argument set."""
    infrared = () if wait is None else ((wait[0], AtomDrive(wait[1], wait[2], INFRARED)),)
    return pulse_train(
        t0,
        (pi_time(omega), AtomDrive(omega, k, OPTICAL_DUAL)),
        *infrared,
        (3.0 * pi_time(omega_dp), AtomDrive(omega_dp, k, OPTICAL_DUAL)),
    )


@lru_cache(maxsize=256)
def single_rail_restore(omega: float, k: float, t_wait: float) -> tuple[GateStage, ...]:
    """Single-rail pi / idle wait / pi from t = 0, each pi pulse one-rail
    :func:`pi_time` long; a wait of zero adds no stage.  One shared tuple."""
    t_pi = pi_time(omega, rails=1)
    drive = AtomDrive(omega, k, OPTICAL_SINGLE)
    wait = ((t_wait, None),) if t_wait > 0 else ()
    return pulse_train(0.0, (t_pi, drive), *wait, (t_pi, drive))


def _levels(train: Sequence[GateStage]) -> tuple[str, ...]:
    """The atom's ground "1" and every level its drives couple, in order
    of first appearance."""
    levels = ["1"]
    for stage in train:
        for coupling in stage.control.couplings if stage.control else ():
            levels += [level for level in coupling[:2] if level not in levels]
    return tuple(levels)


@lru_cache(maxsize=64)
def _atom_space(levels: tuple[str, ...]) -> TwoAtomSpace:
    """The space of one atom with these levels beside the uncoupled
    spectator ("0",), built once per level tuple and shared."""
    return TwoAtomSpace(levels, ("0",))


@lru_cache(maxsize=256)
def _train_space(train: tuple[GateStage, ...]) -> TwoAtomSpace:
    """The :func:`_atom_space` of a train's levels, looked up once per
    train (by content, through :func:`_cached`)."""
    return _atom_space(_levels(train))


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
    across stage boundaries.  ``v`` and ``z0`` may be arrays that broadcast
    against each other, and a stage's end time a 1-D array of length N,
    which samples one drive at N times from the same start (``dualrail
    excite``); the state and the Rydberg time then carry the broadcast
    axes, or a leading axis of length N.
    """
    space = _cached(_train_space, tuple(train))
    psi, rydberg_time = propagate_stages(
        space.first_state, space, train, v, 0.0, z0, 0.0, space.single_rydberg_indices
    )
    return ComplexState(space.control_levels, psi), rydberg_time
