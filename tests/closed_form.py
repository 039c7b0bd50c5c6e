"""Closed-form single-atom propagators from the paper's sqrt(2)*Omega reduction.

An independent oracle for the engine: built from the lab-frame drives of
:mod:`dualrail.hamiltonians`' sign conventions, not from the engine's
Hamiltonian builder.  For each stage the lab-frame propagator is
P(t1) U(t1 - t0) P(t0)^dagger, where P(t) holds the drive phases e^{+-ikz}
at the atom's coordinate z = z0 + v*t and U is the three-term propagator
of the time-independent frame Hamiltonian H:

    U(t) = I - i sin(L t)/L H + (cos(L t) - 1)/L^2 H^2,

exact whenever H^3 = L^2 H.  That holds for a V-type drive (an anchor
coupled at half-amplitude a to two rails at opposite Doppler rates
+-kv, spectrum {0, +-L} with L^2 = 2a^2 + (kv)^2: the two-level transition
at sqrt(2)*Omega between the anchor and a hybrid Rydberg state) and for a
single rail in the symmetric frame (spectrum +-L, L^2 = a^2 + (kv/2)^2).
"""

from __future__ import annotations

import numpy as np

from dualrail.engine import INFRARED, OPTICAL_DUAL, OPTICAL_SINGLE


def three_term(h: np.ndarray, lam: float, t: float) -> np.ndarray:
    """exp(-i h t) for a Hermitian h with h^3 = lam^2 h."""
    return (np.eye(len(h)) - 1j * np.sin(lam * t) / lam * h
            + (np.cos(lam * t) - 1.0) / lam ** 2 * (h @ h))


def stage_propagator(drive, levels, t0, t1, v, z0):
    """Lab-frame propagator over ``levels`` of one atom's stage from t0 to
    t1 (``drive`` None: the identity; no interaction shifts act on a lone
    atom)."""
    u = np.eye(len(levels), dtype=complex)
    if drive is None:
        return u
    a, kv = 0.5 * drive.amp, drive.k * v
    z = lambda t: z0 + v * t
    if drive.couplings == OPTICAL_SINGLE:
        # c_1 = e^{-ikz/2} b_1, c_r1 = e^{+ikz/2} b_r1
        h = np.array([[-0.5 * kv, a], [a, 0.5 * kv]])
        lam = np.hypot(a, 0.5 * kv)
        rows = [levels.index(level) for level in ("1", "r1")]
        phases = lambda t: np.exp(0.5j * drive.k * z(t) * np.array([-1.0, 1.0]))
    else:
        # anchor, rail at +k, rail at -k: c_r1 = e^{+ikz} b_r1, c_r2 = e^{-ikz} b_r2
        anchor = {OPTICAL_DUAL: "1", INFRARED: "r3"}[drive.couplings]
        h = np.array([[0.0, a, a], [a, kv, 0.0], [a, 0.0, -kv]])
        lam = np.sqrt(2.0 * a * a + kv * kv)
        rows = [levels.index(level) for level in (anchor, "r1", "r2")]
        phases = lambda t: np.exp(1j * drive.k * z(t) * np.array([0.0, 1.0, -1.0]))
    block = phases(t1)[:, None] * three_term(h, lam, t1 - t0) * np.conj(phases(t0))[None, :]
    u[np.ix_(rows, rows)] = block
    return u


def closed_form_final(train, levels, v, z0):
    """Final state over ``levels`` of one atom that starts in its ground
    "1" and runs ``train`` (stages with the drive in the control slot)."""
    psi = np.zeros(len(levels), dtype=complex)
    psi[levels.index("1")] = 1.0
    for stage in train:
        psi = stage_propagator(stage.control, levels, stage.t0, stage.t1, v, z0) @ psi
    return psi
