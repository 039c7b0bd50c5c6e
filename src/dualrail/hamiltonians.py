"""Lab-frame reference Hamiltonians for the tests' oracle.

The simulations themselves run on the exact stage engine
(:func:`dualrail.engine.propagate_stages`), which builds its Hamiltonians
from coupling tables.  The dense builders here evaluate the same lab-frame
Hamiltonians at an arbitrary time t (in us), written out by hand for one
fixed, documented level order each, and :func:`lab_hamiltonian` does so
for any engine stage; the DOP853 oracle of :mod:`dualrail.propagator`
integrates them in the tests and in the c1 transfer benchmark.  Couplings
carry a moving-atom phase k*(z0 + v*t); all diagonals of the single-atom
builders are zero (resonant drive in the rotating frame).  Stated Rabi
amplitudes enter as Omega/2 off-diagonal elements.

Sign conventions, fixed throughout the package:

* optical drive: <r1|H|1> = (Omega/2) e^{+i k z},  <r2|H|1> = (Omega/2) e^{-i k z}
* infrared drive: <r1|H|r3> = (Omega_IF/2) e^{+i k_w z},  <r2|H|r3> = (Omega_IF/2) e^{-i k_w z}
* four-field variant: <r1|H|1> = Omega cos(k z),  <r2|H|1> = +i Omega sin(k z)

with z = z0 + v*t.  Only relative signs are observable; the sin-rail sign
is fixed to +i here.
"""

from __future__ import annotations

import numpy as np

from dualrail.engine import GateStage, TwoAtomSpace

GAP_BASIS = ("1", "r1", "r2", "r3")
NINE_BASIS = (
    "r3r2", "r3r1", "r31",
    "r2r2", "r2r1", "r21",
    "r1r2", "r1r1", "r11",
)


def h_single_rail(t: float, omega: float, k: float, z0: float, v: float) -> np.ndarray:
    """Two-level drive of a single Rydberg rail, basis ("1", "r1")."""
    phase = np.exp(1j * k * (z0 + v * t))
    h = np.zeros((2, 2), dtype=complex)
    h[1, 0] = 0.5 * omega * phase
    h[0, 1] = np.conj(h[1, 0])
    return h


def h_dual_rail(t: float, omega: float, k: float, z0: float, v: float) -> np.ndarray:
    """Counterpropagating two-rail drive, basis ("r2", "r1", "1").

    The two rails carry opposite Doppler phases; the effective coupling
    strength between the ground state and the bright superposition is
    sqrt(2)*Omega, so the spectrum is {0, +-Omega/sqrt(2)} at every t.
    """
    phase = np.exp(1j * k * (z0 + v * t))
    h = np.zeros((3, 3), dtype=complex)
    h[1, 2] = 0.5 * omega * phase           # <r1|H|1>
    h[0, 2] = 0.5 * omega * np.conj(phase)  # <r2|H|1>
    h[2, 1] = np.conj(h[1, 2])
    h[2, 0] = np.conj(h[0, 2])
    return h


def h_four_field(t: float, omega: float, k: float, z0: float, v: float) -> np.ndarray:
    """cos/sin drive of the two rails, basis ("r2", "r1", "1").

    Realizes full Rabi couplings 2*Omega*cos(kz) on r1 and 2i*Omega*sin(kz)
    on r2 (entered as halves).  A rotation to the |r+-> superpositions maps
    this onto :func:`h_dual_rail` with amplitude sqrt(2)*Omega.
    """
    kz = k * (z0 + v * t)
    h = np.zeros((3, 3), dtype=complex)
    h[1, 2] = omega * np.cos(kz)        # <r1|H|1>
    h[0, 2] = 1j * omega * np.sin(kz)   # <r2|H|1>
    h[2, 1] = np.conj(h[1, 2])
    h[2, 0] = np.conj(h[0, 2])
    return h


# Interaction-shift keys of the nine-level system: (a, b) refers to the
# control atom in r_a and the target atom in r_b, unordered.
NINE_LEVEL_PAIRS = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3))


def nine_level_shifts(params) -> dict[tuple[int, int], float]:
    """The pair shifts of a :class:`~dualrail.gate.GateParams`, keyed by
    rail indices as :func:`h_gate_nine` reads them."""
    return {
        tuple(sorted((int(a[1]), int(b[1])))): params.pair_shift(a, b)
        for a in ("r1", "r2", "r3") for b in ("r1", "r2")
    }


def h_gate_nine(
    t: float,
    omega_t: float,
    omega_if: float,
    k: float,
    k_wait: float,
    z_c: float,
    z_t: float,
    shifts: dict[tuple[int, int], float],
) -> np.ndarray:
    """Two-atom Hamiltonian with the control atom shelved in Rydberg levels.

    Basis (control x target):
    (r3r2, r3r1, r31, r2r2, r2r1, r21, r1r2, r1r1, r11).
    The target atom is optically driven (amplitude omega_t, wavevector
    +-k at coordinate z_t) and the control atom is infrared driven
    between r1,r2 and r3 (amplitude omega_if, +-k_wait at z_c).  Diagonal
    entries are the interaction shifts V_ab for double-Rydberg states;
    ``shifts`` must supply the pairs in :data:`NINE_LEVEL_PAIRS`.

    ``z_c`` and ``z_t`` are the instantaneous atom coordinates; callers
    supply z0 + v*t per atom.
    """
    for pair in NINE_LEVEL_PAIRS:
        if pair not in shifts:
            raise KeyError(f"missing interaction shift for pair {pair}")

    a = 0.5 * omega_t * np.exp(1j * k * z_t)
    b = 0.5 * omega_if * np.exp(1j * k_wait * z_c)
    ac, bc = np.conj(a), np.conj(b)
    v11 = shifts[(1, 1)]
    v12 = shifts[(1, 2)]
    v13 = shifts[(1, 3)]
    v22 = shifts[(2, 2)]
    v23 = shifts[(2, 3)]

    h = np.array(
        [
            [v23, 0, ac, b, 0, 0, bc, 0, 0],
            [0, v13, a, 0, b, 0, 0, bc, 0],
            [a, ac, 0, 0, 0, b, 0, 0, bc],
            [bc, 0, 0, v22, 0, ac, 0, 0, 0],
            [0, bc, 0, 0, v12, a, 0, 0, 0],
            [0, 0, bc, a, ac, 0, 0, 0, 0],
            [b, 0, 0, 0, 0, 0, v12, 0, ac],
            [0, b, 0, 0, 0, 0, 0, v11, a],
            [0, 0, b, 0, 0, 0, a, ac, 0],
        ],
        dtype=complex,
    )
    return h


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
