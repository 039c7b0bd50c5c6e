"""The exact propagation engine that every protocol and the gate run on.

A run is a list of stages (:class:`GateStage`) with optional control and
target drives (:class:`AtomDrive`) over a two-atom basis
(:class:`TwoAtomSpace`).  :func:`pulse_train` and its wrappers build one
atom's train, and :func:`propagate_atom` runs it in one call: every
single-atom protocol, and the gate's inputs "10" and "01", whose other
atom is an uncoupled spectator in |0>.

Per-stage rotating frames absorb every drive phase k*(z0 + v*t) into level
phases that grow linearly in time, leaving a time-independent real
symmetric Hamiltonian: half-amplitudes off the diagonal, the Doppler rates
-k*v per rail and the interaction shifts on it.  One eigendecomposition per
stage gives the exact propagator and, for the rows a caller asks for, the
exact time-integrated Rydberg occupation, which never feeds back into the
state (a caller that asks for none pays nothing for it).  Only the Doppler
diagonal depends on the velocities, and only on those of the atoms a stage
drives, so a stage diagonalizes the stack of the velocities it sees in one
``eigh`` call (control and target velocities may lie on separate broadcast
axes), and memoizes its in-frame Hamiltonian by content (space and drives,
never times) as read-only arrays.

Flipping the sign of one atom's amplitude is an exact diagonal similarity
H(-amp) = S H(+amp) S with S = +-1, and the velocities are fixed within a
call.  So within one :func:`propagate_stages` call, a stage whose drives
match an earlier stage's up to amplitude signs takes that stage's
eigensystem instead of its own ``eigh``, and multiplies the state by S on
the way into and out of the eigenbasis, which is exact: the gate's target
deexcitation at -Omega_t after its excitation at +Omega_t, or the second of
two identical pi pulses.  A stage with no such earlier relative
diagonalizes its own Hamiltonian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from dualrail.core import scalar_or_array

SINGLE_RAIL_BASIS = ("1", "r1")
DUAL_RAIL_BASIS = ("r2", "r1", "1")

# Coupling topologies: (anchor_level, driven_level, wavevector_sign).
OPTICAL_DUAL = (("1", "r1", +1), ("1", "r2", -1))
OPTICAL_SINGLE = (("1", "r1", +1),)
INFRARED = (("r3", "r1", +1), ("r3", "r2", -1))


def pi_time(omega: float) -> float:
    """Duration pi/(sqrt(2)|Omega|) of a dual-rail pi pulse; a zero or
    non-finite amplitude raises ValueError."""
    if omega == 0:
        raise ValueError("a zero Rabi amplitude has no pulse length")
    if not math.isfinite(omega):
        raise ValueError(f"a Rabi amplitude must be finite, got {omega}")
    return math.pi / (math.sqrt(2.0) * abs(omega))


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
    """Complex amplitudes over a named level basis, optionally with a
    leading batch axis (one state per row; the accessors return arrays)."""

    basis: tuple[str, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim not in (1, 2) or amps.shape[-1] != len(self.basis):
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

    @property
    def first_state(self) -> np.ndarray:
        """Basis state 0, both atoms in their first level, as a read-only
        unit vector (a row of :func:`_identity`)."""
        return _identity(self.dim)[0]

    @property
    def single_rydberg_indices(self) -> np.ndarray:
        """Basis indices of the states with exactly one atom in a Rydberg
        level (labels starting with "r"), built once per pair of level
        tuples and shared read-only."""
        return _single_rydberg_indices(self.control_levels, self.target_levels)


@lru_cache(maxsize=64)
def _identity(dim: int) -> np.ndarray:
    """The dim x dim identity, built once per dim and shared read-only."""
    identity = np.eye(dim)
    identity.flags.writeable = False
    return identity


@lru_cache(maxsize=64)
def _single_rydberg_indices(
    control_levels: tuple[str, ...], target_levels: tuple[str, ...]
) -> np.ndarray:
    labels = [(c, t) for c in control_levels for t in target_levels]
    indices = np.array([i for i, (c, t) in enumerate(labels)
                        if c.startswith("r") != t.startswith("r")], dtype=int)
    indices.flags.writeable = False
    return indices


@lru_cache(maxsize=256)
def _stage_hamiltonian(
    space: TwoAtomSpace, control: AtomDrive | None, target: AtomDrive | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple, np.ndarray]:
    """Velocity-independent in-frame Hamiltonian of a stage with these
    drives and the frame rates of its basis states
    (:func:`_build_hamiltonian`), then the stage's sign-free key and sign
    vector (:func:`_sign_free_key`), memoized by content: the space and the
    stage's two drives, never its times, which may be arrays.  The arrays
    are shared between calls and read-only."""
    h0, frame_c, frame_t = _build_hamiltonian(space, control, target)
    key, signs = _sign_free_key(space, control, target)
    for array in (h0, frame_c, frame_t, signs):
        array.flags.writeable = False
    return h0, frame_c, frame_t, key, signs


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

    The velocities and initial coordinates are scalars or arrays that
    broadcast against each other to a batch shape B, such as ``v[:, None]``
    for the control against ``v[None, :]`` for the target (a scalar pairs
    with every entry of the others).  Every run starts from ``psi``, which
    may carry the batch axes too (the coordinates enter only the frame
    phases), and the results are a B + (dim,) state stack and a B-shaped
    occupation array.  A driven stage takes one stacked eigendecomposition
    over the velocities its own drives see (or reuses an earlier stage's:
    see the module docstring): a stage that drives only the target above
    takes one matrix per target velocity, not one per pair.  Scalars keep
    every array one axis smaller, which is cheaper for a single pair.  A
    stage's ``t0`` and ``t1`` may be 1-D arrays of length N too:
    ``[GateStage(0.0, ts, drive)]`` gives the state at every end time in
    ``ts`` from one eigendecomposition.

    Splitting a stage list into two calls, the second starting from the
    first's state, is the same arithmetic as one call, as the state passes
    between stages in the lab frame; only the eigensystem reuse does not
    reach across calls.

    The occupation is computed only for the rows asked for.  With none
    (the default) it is 0 and costs nothing, and the state is the same,
    bit for bit, as with rows: the integral never feeds back into it.
    """
    v_c, v_t, z_c, z_t = (np.asarray(x, dtype=float)
                          for x in (v_control, v_target, z0_control, z0_target))
    shapes = (v_c.shape, v_t.shape, z_c.shape, z_t.shape)
    # Scalar calls skip broadcast_shapes, whose microseconds they would feel.
    batch = np.broadcast_shapes(*shapes) if any(shapes) else ()
    v_c, v_t, z_c, z_t = v_c[..., None], v_t[..., None], z_c[..., None], z_t[..., None]
    # The state takes the batch axes only as stages reach them: a first
    # stage that drives only the control runs once per control velocity.
    psi = np.asarray(psi, dtype=complex)
    occupation = np.zeros(batch)
    rows = np.asarray(occupation_rows, dtype=int)
    identity = _identity(space.dim)
    eigensystems = {}  # by sign-free key: exact, as the rates are fixed in a call
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
        h0, frame_c, frame_t, key, signs = _stage_hamiltonian(
            space, stage.control, stage.target)
        # An undriven atom has no frame, so its velocities add nothing.
        rates = frame_c * v_c if stage.control is not None else 0.0
        if stage.target is not None:
            rates = rates + frame_t * v_t
        offset = frame_c * z_c + frame_t * z_t
        theta0 = offset + rates * t0
        theta1 = offset + rates * t1

        psi = np.exp(1j * theta0) * psi
        flip = None
        if key in eigensystems:
            # This stage's eigenvectors are the stored ones with rows times
            # flip; the +-1 goes on the state, not on the (..., d, d) stack.
            eigenvalues, vectors, first_signs = eigensystems[key]
            flip = first_signs * signs
            psi = flip * psi
        else:
            eigenvalues, vectors = np.linalg.eigh(h0 - rates[..., None] * identity)
            eigensystems[key] = eigenvalues, vectors, signs
        coeffs = (psi[..., None, :] @ vectors)[..., 0, :]
        if rows.size:
            # A row's sign cancels in its population: the stored vectors do.
            occupation = occupation + _occupation_integral(
                vectors, coeffs, eigenvalues, duration, rows
            )
        phases = np.exp(-1j * duration * eigenvalues) * coeffs
        phi = (vectors @ phases[..., None])[..., 0]
        if flip is not None:
            phi = flip * phi
        psi = np.exp(-1j * theta1) * phi
    return np.zeros(batch + (space.dim,), dtype=complex) + psi, scalar_or_array(occupation)


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
    across stage boundaries.  ``v`` and ``z0`` may be arrays that broadcast
    against each other, and a stage's end time a 1-D array of length N,
    which samples one drive at N times from the same start (``dualrail
    excite``); the state and the Rydberg time then carry the broadcast
    axes, or a leading axis of length N.
    """
    space = TwoAtomSpace(_levels(train), ("0",))
    psi, rydberg_time = propagate_stages(
        space.first_state, space, train, v, 0.0, z0, 0.0, space.single_rydberg_indices
    )
    return ComplexState(space.control_levels, psi), rydberg_time
