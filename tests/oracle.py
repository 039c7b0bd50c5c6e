"""Closed forms and preset lists that the tests check the package against
and that no ``dualrail`` command computes."""

from __future__ import annotations

import math
import warnings

import numpy as np

from dualrail import core
from dualrail.core import AtomLaserConfig, WavevectorSet, scalar_or_array


def analytic_w(t, omega: float, k: float, z0: float, v: float):
    """Perturbative rail amplitudes (w1, w2) of the cos/sin drive.

    Valid for k*v << Omega; a warning is emitted above k*v = 0.1*Omega.
    Accepts scalar or array t.  In the v -> 0, z0 = 0 limit
    w1 = -i sin(Omega t), w2 = 0 and |w1|^2 + |w2|^2 = sin^2(Omega t).
    """
    if abs(k * v) > 0.1 * abs(omega):
        warnings.warn(
            "analytic rail amplitudes requested outside their validity "
            f"range: k*v/Omega = {k * v / omega:.3f} > 0.1",
            stacklevel=2,
        )
    t = np.asarray(t, dtype=float)
    kz0 = k * z0
    kv = k * v
    out = []
    for alpha, f in ((1, np.sin), (2, np.cos)):
        w = np.zeros_like(t, dtype=complex)
        for eta in (+1.0, -1.0):
            rate = kv + eta * omega
            w += (f(kz0) - f(kz0 + rate * t)) / (2.0 * rate)
        w = (1j) ** (2 - alpha) * omega * w
        out.append(scalar_or_array(w))
    return out[0], out[1]


def decay_error_analytic(omega: float, tau_us: float) -> float:
    """Closed-form estimate 7*sqrt(2)*pi/(4*Omega*tau) for the resilient
    gate with |Omega_dp| ~ Omega and the standard pulse budget."""
    return 7.0 * math.sqrt(2.0) * math.pi / (4.0 * omega * tau_us)


def builtin_configs() -> list[AtomLaserConfig]:
    """The bundled atom/laser presets, default first."""
    return list(core._BUILTIN)


def mismatch(wavevectors: WavevectorSet) -> float:
    """Fractional difference |1 - k_wait/k_excite| between the drives."""
    return abs(1.0 - wavevectors.k_wait / wavevectors.k_excite)
