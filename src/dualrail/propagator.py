"""The adaptive oracle that checks the exact engine.

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

from typing import Callable

import numpy as np

from dualrail.engine import ComplexState

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

