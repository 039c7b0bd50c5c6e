"""Exact single-atom propagation, and the adaptive oracle that checks it.

``propagate_atom`` runs one atom through a list of drive stages on the
exact stage engine of :mod:`dualrail.gate`: inside a stage every drive
phase k*(z0 + v*t) is absorbed into a rotating frame, one eigendecomposition
gives the time-ordered propagator, and the Rydberg residence time comes
out in closed form.  Every protocol of :mod:`dualrail.protocols` and the
``dualrail excite`` command run on it.

``evolve`` integrates the Schrodinger equation i d|psi>/dt = H(t)|psi>
with an adaptive eighth-order Runge-Kutta stepper (DOP853) at a default
relative tolerance of 1e-10, on the lab-frame builders of
:mod:`dualrail.hamiltonians`.  The norm is never renormalized; drift away
from 1 is a solver diagnostic.  ``evolve_oracle`` is an independent
piecewise-constant midpoint matrix-exponential product used to
cross-check the stepper.  Both are oracles: the tests and the c1 transfer
benchmark use them, the production route does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from dualrail.core import scalar_or_array
from dualrail.gate import GateStage, TwoAtomSpace, propagate_stages

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12


def solve_ivp(*args, **kwargs):
    """:func:`scipy.integrate.solve_ivp`, imported on first use: SciPy's
    import costs more than a whole production run, and only the oracle
    integrates."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


class EvolutionError(RuntimeError):
    """Raised when the integrator fails to converge or loses the norm."""


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


def evolve(
    state: ComplexState,
    h_builder: Callable[[float], np.ndarray],
    t0: float,
    t1: float,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> ComplexState:
    """Propagate ``state`` from t0 to t1 under H(t) = h_builder(t)."""
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    if t1 == t0:
        return state

    def rhs(t, y):
        return -1j * (h_builder(t) @ y)

    sol = solve_ivp(
        rhs, (t0, t1), state.amplitudes, method="DOP853", rtol=rtol, atol=atol
    )
    if not sol.success:
        raise EvolutionError(
            f"integration failed on [{t0}, {t1}]: {sol.message}"
        )
    norm = np.linalg.norm(sol.y[:, -1])
    if abs(norm - 1.0) > 1e-6:
        raise EvolutionError(
            f"norm drifted to {norm!r} on [{t0}, {t1}]; tolerances too loose"
        )
    return ComplexState(state.basis, sol.y[:, -1])


def evolve_oracle(
    state: ComplexState,
    h_builder: Callable[[float], np.ndarray],
    t0: float,
    t1: float,
    n_steps: int,
) -> ComplexState:
    """Midpoint matrix-exponential product with n_steps uniform slices.

    Exact for Hamiltonians that commute with themselves at different
    times; otherwise converges to :func:`evolve` as n_steps grows.  Kept
    free of adaptive-stepper machinery so the two routes stay independent.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    dt = (t1 - t0) / n_steps
    mids = t0 + (np.arange(n_steps) + 0.5) * dt
    hs = np.stack([h_builder(t) for t in mids])
    evals, evecs = np.linalg.eigh(hs)
    psi = state.amplitudes.copy()
    for j in range(n_steps):
        r = evecs[j]
        psi = r @ (np.exp(-1j * evals[j] * dt) * (r.conj().T @ psi))
    return ComplexState(state.basis, psi)


def propagate_atom(
    levels: Sequence[str],
    stages: Sequence[GateStage],
    v: float | np.ndarray,
    z0: float | np.ndarray,
) -> tuple[list[ComplexState], float | np.ndarray]:
    """Exact staged evolution of one atom that starts in its level "1".

    The atom takes the control slot of a :class:`TwoAtomSpace` whose
    target is the uncoupled spectator ("0",), so the stages carry its
    drives as ``control``.  Its coordinate z0 + v*t runs on across stage
    boundaries.  Returns the state at the end of every stage and the time
    spent in the Rydberg levels (labels starting with "r").
    ``v`` and ``z0`` may be 1-D arrays of one length N, as in
    :func:`dualrail.gate.propagate_stages`; the states and the Rydberg time
    then carry a leading axis of length N.
    """
    levels = tuple(levels)
    space = TwoAtomSpace(levels, ("0",))
    rows = space.single_rydberg_indices()
    psi = ComplexState.from_label(levels, "1").amplitudes
    states, rydberg_time = [], 0.0
    for stage in stages:
        psi, occupation = propagate_stages(psi, space, [stage], v, 0.0, z0, 0.0, rows)
        states.append(ComplexState(levels, psi))
        rydberg_time += occupation
    return states, rydberg_time
