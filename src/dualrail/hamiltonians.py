"""Level orders, pulse lengths and lab-frame reference Hamiltonians.

The simulations themselves run on the exact stage engine
(:func:`dualrail.gate.propagate_stages`), which builds its Hamiltonians
from coupling tables.  The dense builders here evaluate the same lab-frame
Hamiltonians at an arbitrary time t (in us), written out by hand for one
fixed, documented level order each; the DOP853 oracle of
:mod:`dualrail.propagator` integrates them in the tests and in the c1
transfer benchmark.  Couplings carry a moving-atom phase k*(z0 + v*t); all
diagonals of the single-atom builders are zero (resonant drive in the
rotating frame).  Stated Rabi amplitudes enter as Omega/2 off-diagonal
elements.

Sign conventions, fixed throughout the package:

* optical drive: <r1|H|1> = (Omega/2) e^{+i k z},  <r2|H|1> = (Omega/2) e^{-i k z}
* infrared drive: <r1|H|r3> = (Omega_IF/2) e^{+i k_w z},  <r2|H|r3> = (Omega_IF/2) e^{-i k_w z}
* four-field variant: <r1|H|1> = Omega cos(k z),  <r2|H|1> = +i Omega sin(k z)

with z = z0 + v*t.  Only relative signs are observable; the sin-rail sign
is fixed to +i here.
"""

from __future__ import annotations

import math

import numpy as np

SINGLE_RAIL_BASIS = ("1", "r1")
DUAL_RAIL_BASIS = ("r2", "r1", "1")
GAP_BASIS = ("1", "r1", "r2", "r3")
NINE_BASIS = (
    "r3r2", "r3r1", "r31",
    "r2r2", "r2r1", "r21",
    "r1r2", "r1r1", "r11",
)


def pi_time(omega: float) -> float:
    """Duration pi/(sqrt(2)|Omega|) of a dual-rail pi pulse."""
    if omega == 0:
        raise ValueError("a zero Rabi amplitude has no pulse length")
    return math.pi / (math.sqrt(2.0) * abs(omega))


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


def dual_rail_rotation() -> np.ndarray:
    """Unitary mapping the (r2, r1, 1) basis onto (r-, r+, 1).

    Satisfies R @ h_four_field(t, W, ...) @ R.conj().T
    == h_dual_rail(t, sqrt(2)*W, ...) for all arguments.
    """
    s = 1.0 / math.sqrt(2.0)
    return np.array(
        [[-s, s, 0.0], [s, s, 0.0], [0.0, 0.0, 1.0]], dtype=complex
    )


# Interaction-shift keys of the nine-level system: (a, b) refers to the
# control atom in r_a and the target atom in r_b, unordered.
NINE_LEVEL_PAIRS = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3))


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
