"""Single-atom protocols: excite/restore, gap-time shelving, baselines.

The resilient protocols drive both Rydberg rails; population leaves the
ground state in one effective pi pulse of duration pi/(sqrt(2)*Omega) and
returns after a 3*pi deexcitation pulse whose amplitude Omega_dp is tuned
slightly away from Omega to cancel the Doppler phase picked up during
excitation.  A negative Omega_dp additionally imprints the pi phase a
controlled-Z gate needs.  The traditional baseline drives a single rail
and is kept for comparison; its restored phase carries the uncompensated
Doppler term.

Every protocol is one atom's pulse train, built by the builders that also
build the gate's two atoms and run in one call by
:func:`dualrail.engine.propagate_atom`, batched over velocity and
coordinate arrays.  A train depends on its scalar drive fields alone (the
amplitudes, the wait and the wavevectors), and the builders cache it by
them, so the gap protocol and the gate's control hold one train; the
velocity and the start coordinate, which may be arrays, never key it, and
every call still propagates.  Because the restored ground phase comes out
of an exact computation, a phase of pi can come back as +pi or -pi by
roundoff; compare phases modulo 2*pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from dualrail.core import (
    WEIGHT_MASS_TOL,
    AtomSpecies,
    ConvergenceError,
    SimulationParams,
    WavevectorSet,
    gap_wait_time,
    maxwell_grid,
    maxwell_rule,
    rad_per_us_to_mhz,
    mhz_to_rad_per_us,
    scalar_or_array,
)
from dualrail.engine import (
    OPTICAL_DUAL, AtomDrive, ComplexState, _atom_space, _levels,
    pi_time, propagate_atom, propagate_stages, pulse_train, resilient_pair,
    single_rail_restore,
)


def __getattr__(name: str):
    # perfbench's tracer patches ProcessPoolExecutor here; it resolves on
    # lookup so that no import loads the unused process-pool machinery.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class OptimizationError(RuntimeError):
    """Raised when no interior optimum exists in the search bracket."""


class PhaseExtractionError(RuntimeError):
    """Raised when the Rydberg amplitude is too small to carry a phase."""


@dataclass(frozen=True)
class ProtocolOutcome:
    """Endpoint observables of one protocol run (arrays for a batched run)."""

    ground_population: float | np.ndarray
    ground_phase: float | np.ndarray
    r3_leak: float | np.ndarray
    rydberg_time_us: float | np.ndarray

    @property
    def error(self) -> float | np.ndarray:
        return 1.0 - self.ground_population


@dataclass(frozen=True)
class AveragedOutcome:
    """Maxwell-weighted means over a velocity grid."""

    ground_population: float
    mean_abs_phase: float
    r3_leak: float
    rydberg_time_us: float
    weight_mass: float
    n_points: int

    @property
    def error(self) -> float:
        return 1.0 - self.ground_population


@dataclass(frozen=True)
class PhaseFit:
    """Doppler phase slope phi / (2 pi k v / Omega) over a velocity range."""

    slope_ratio: float
    residual: float
    velocities: np.ndarray
    ratios: np.ndarray


def _outcome(final: ComplexState, rydberg_time) -> ProtocolOutcome:
    """Outcome of a run that ends in ``final``.  The r3 leak is the final
    r3 population: no pulse after the wait couples r3.  An atom without r3
    leaks nothing."""
    ground = final.amplitude("1")
    population = abs(ground) ** 2
    r3_leak = final.population("r3") if "r3" in final.basis else 0.0 * population
    return ProtocolOutcome(population, scalar_or_array(np.angle(ground)), r3_leak, rydberg_time)


def run_excite_restore(params: SimulationParams, k: float) -> ProtocolOutcome:
    """Immediate pi + 3*pi state transfer and restoration, no wait window."""
    stages = resilient_pair(params.omega, params.omega_dp, k)
    return _outcome(*propagate_atom(stages, params.v_mps, params.z0_um))


def run_gap_protocol(params: SimulationParams, wavevectors: WavevectorSet) -> ProtocolOutcome:
    """Restoration with an infrared-shelved wait window between the pulses.

    The wait duration must equal 4*n*pi/(sqrt(2)*Omega_IF) so the
    population completes full cycles through the auxiliary state; the
    residual population left in r3 at the end of the window, which the
    deexcitation does not touch, is reported as ``r3_leak``.
    """
    expected = gap_wait_time(params.n_gap_cycles, params.omega_if)
    if params.t_wait_us and not math.isclose(params.t_wait_us, expected, rel_tol=1e-12):
        raise ValueError(
            f"wait time {params.t_wait_us} breaks the full-cycle condition; "
            f"expected {expected} for n={params.n_gap_cycles}"
        )
    stages = resilient_pair(params.omega, params.omega_dp, wavevectors.k_excite,
                            (expected, params.omega_if, wavevectors.k_wait))
    return _outcome(*propagate_atom(stages, params.v_mps, params.z0_um))


def run_traditional_restore(params: SimulationParams, k: float) -> ProtocolOutcome:
    """Single-rail pi / idle wait / pi baseline.

    Both pulses use the same wavevector sign, so the Doppler phase
    k*v*t_wait accumulated in the Rydberg state survives into the
    restored ground-state phase.
    """
    stages = single_rail_restore(params.omega, k, params.t_wait_us)
    return _outcome(*propagate_atom(stages, params.v_mps, params.z0_um))


def extract_phase_phi(omega: float, k: float, v: float | np.ndarray) -> float | np.ndarray:
    """Doppler phase modulation of the rail amplitudes after a pi pulse.

    Propagates from the ground state for pi/(sqrt(2)*Omega) at z0 = 0 and
    returns phi with C_r1 = -i C_r e^{+i phi}, C_r2 = -i C_r e^{-i phi};
    phi(v=0) = 0 fixes the branch.  A velocity array gives an array of phi.
    """
    stages = pulse_train(0.0, (pi_time(omega), AtomDrive(omega, k, OPTICAL_DUAL)))
    final, _ = propagate_atom(stages, v, 0.0)
    c_r1 = final.amplitude("r1")
    c_r2 = final.amplitude("r2")
    if np.any(np.minimum(abs(c_r1), abs(c_r2)) < 1e-6):
        raise PhaseExtractionError(
            "rail amplitudes too small for a well-defined phase"
        )
    return scalar_or_array(0.5 * np.angle(c_r1 / c_r2))


def phase_linearity(
    omega: float, k: float, velocities: Sequence[float]
) -> PhaseFit:
    """Fit phi(pi/(sqrt(2)*Omega)) against its linear Doppler form.

    The ratio phi / (2 pi k v / Omega) is undefined at v = 0, so a zero
    velocity raises ValueError.  phi is the same for +Omega and -Omega, so
    the slope ratio takes the sign of Omega.
    """
    velocities = np.asarray(velocities, dtype=float)
    if np.any(velocities == 0.0):
        raise ValueError("the phase fit needs nonzero velocities: "
                         "phi/v is undefined at v = 0")
    phis = extract_phase_phi(omega, k, velocities)
    ratios = phis * omega / (2.0 * math.pi * k * velocities)
    slope = float(np.mean(ratios))
    residual = float(np.max(np.abs(ratios - slope)))
    return PhaseFit(slope, residual, velocities, ratios)


def optimize_deexcitation(
    omega: float,
    k: float,
    v_ref: float = 0.05,
    sign: int = +1,
) -> float:
    """Deexcitation amplitude minimizing the restored-population error.

    Scans |Omega_dp| within 10% of |Omega| with Brent's bounded
    minimization without derivatives (:func:`_minimize_bounded`, which
    matches SciPy's bounded ``minimize_scalar`` exactly) at 1e-6 MHz
    resolution, minimizing the restore error of the pi + 3*pi sequence
    (:func:`run_excite_restore`, at the signed Omega) at the reference
    velocity.  The pi excitation does not depend on Omega_dp, so it runs
    once per search; each evaluation runs only the 3*pi stage from the
    stored state, which is the same arithmetic as the whole pair in one
    call (see :func:`dualrail.engine.propagate_stages`).  The optimum
    belongs to ``v_ref``: for |Omega|/2pi = 2 MHz on the positive branch it
    is 2.0013 MHz at v_ref = 0.01 m/s, 2.0317 MHz at 0.05 m/s and 2.1179
    MHz at 0.1 m/s.  Returns the signed amplitude in rad/us.

    At v_ref = 0 every 3*pi-area pulse restores the state exactly and the
    objective is degenerate; the convention is to return sign*|Omega|.  A
    zero Omega, or a NaN or infinite v_ref, raises ValueError.
    """
    t_pi = pi_time(omega)  # rejects a zero amplitude, as every pulse does
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if not math.isfinite(v_ref):
        raise ValueError(f"v_ref must be finite, got {v_ref!r}")
    if v_ref == 0.0:
        return sign * abs(omega)

    omega_mhz = rad_per_us_to_mhz(abs(omega))
    lo, hi = 0.9 * omega_mhz, 1.1 * omega_mhz
    xatol_mhz = 1e-6

    # The lone atom from z0 = 0 at v_ref, as run_excite_restore runs it:
    # the pi excitation once, then each evaluation's 3*pi stage from there.
    excite = pulse_train(0.0, (t_pi, AtomDrive(omega, k, OPTICAL_DUAL)))
    space = _atom_space(_levels(excite))
    excited, _ = propagate_stages(space.first_state, space, excite, v_ref, 0.0, 0.0, 0.0)

    def objective(x_mhz: float) -> float:
        amp = sign * mhz_to_rad_per_us(x_mhz)
        restore = pulse_train(t_pi, (3.0 * pi_time(amp), AtomDrive(amp, k, OPTICAL_DUAL)))
        final, _ = propagate_stages(excited, space, restore, v_ref, 0.0, 0.0, 0.0)
        return 1.0 - abs(final[0]) ** 2  # the ground "1" is the first level

    x = _minimize_bounded(objective, lo, hi, xatol_mhz)
    if min(x - lo, hi - x) < 10.0 * xatol_mhz:
        raise OptimizationError(
            f"optimum {x:.6f} MHz sits on the bracket edge "
            f"[{lo:.6f}, {hi:.6f}], 10% around |Omega|"
        )
    return sign * mhz_to_rad_per_us(x)


def _minimize_bounded(
    f: Callable[[float], float], lo: float, hi: float, xatol: float
) -> float:
    """Minimum of ``f`` on [lo, hi] by Brent's bounded minimization without
    derivatives (R. P. Brent, *Algorithms for Minimization without
    Derivatives*, 1973): golden-section steps, parabolic steps where a
    parabola through the three best points is acceptable, to an absolute
    tolerance ``xatol`` in x.

    A step-for-step port of SciPy's ``_minimize_scalar_bounded`` (BSD-3):
    it evaluates the same points in the same order and returns the same x,
    bit for bit, as ``minimize_scalar(f, bounds=(lo, hi),
    method="bounded", options={"xatol": xatol})``.  Non-finite or reversed
    bounds raise ValueError; a NaN, or 500 evaluations without convergence
    (SciPy's default cap), raise OptimizationError with SciPy's message.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if lo > hi:
        raise ValueError("The lower bound exceeds the upper bound.")
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    # a, b: the bracket; xf: the best point so far, nfc the second best,
    # fulc the third (the previous value of nfc).
    a, b = lo, hi
    fulc = nfc = xf = a + golden_mean * (b - a)
    rat = e = 0.0
    fx = f(xf)
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    capped = False
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        parabolic = False
        if abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            parabolic = abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf)
            if parabolic:
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if not parabolic:  # golden section into the larger part
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        # Never step by less than tol1.
        step = max(abs(rat), tol1)
        x = xf + step if rat >= 0.0 else xf - step
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            capped = True
            break
    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        raise OptimizationError("NaN result encountered.")
    if capped:
        raise OptimizationError("Maximum number of function calls reached.")
    return xf


def maxwell_average(
    runner: Callable[[float | np.ndarray], ProtocolOutcome],
    temperature_uk: float,
    species: AtomSpecies,
    velocities: np.ndarray | None = None,
) -> AveragedOutcome:
    """Maxwell-weighted protocol averages over a symmetric velocity grid.

    ``runner`` maps velocities to an outcome; it is called once, with the
    whole grid.  The default grid spans +-5 thermal rms speeds with 201
    points.  The grid's rule (:func:`~dualrail.core.maxwell_rule`) comes
    first, and its mass must be 1 within ``WEIGHT_MASS_TOL`` (1e-3): too
    narrow a grid misses weight, too coarse a one miscounts it, and a single
    point carries none.
    """
    if velocities is None:
        velocities = maxwell_grid(temperature_uk, species)
    velocities = np.asarray(velocities, dtype=float).reshape(-1)
    rule = maxwell_rule(velocities, temperature_uk, species)
    if abs(rule.mass - 1.0) > WEIGHT_MASS_TOL:
        raise ConvergenceError(f"velocity grid carries {rule.mass:.6f} of the "
                               f"Maxwell weight, not 1 within {WEIGHT_MASS_TOL:g}")
    out = runner(velocities)
    fields = (out.ground_population, np.abs(out.ground_phase), out.r3_leak,
              out.rydberg_time_us)
    return AveragedOutcome(*map(rule.mean, fields), weight_mass=rule.mass,
                           n_points=velocities.size)


def restore_runner(params: SimulationParams, k: float,
                   v: float | np.ndarray) -> ProtocolOutcome:
    return run_excite_restore(replace(params, v_mps=v), k)


def gap_runner(params: SimulationParams, wavevectors: WavevectorSet,
               v: float | np.ndarray) -> ProtocolOutcome:
    return run_gap_protocol(replace(params, v_mps=v), wavevectors)


def traditional_runner(params: SimulationParams, k: float,
                       v: float | np.ndarray) -> ProtocolOutcome:
    return run_traditional_restore(replace(params, v_mps=v), k)

