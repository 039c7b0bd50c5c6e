import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualrail.core import (
    SimulationParams,
    gap_wait_time,
    get_config,
    maxwell_grid,
    maxwell_rule,
    mhz_to_rad_per_us,
    rad_per_us_to_mhz,
)
from dualrail import core, engine
from dualrail.engine import (
    DUAL_RAIL_BASIS,
    INFRARED,
    OPTICAL_DUAL,
    SINGLE_RAIL_BASIS,
    AtomDrive,
    ComplexState,
    GateStage,
    TwoAtomSpace,
    dual_rail_rotation,
    pi_time,
    propagate_atom,
    propagate_stages,
    resilient_pair,
)
from dualrail.hamiltonians import (
    GAP_BASIS,
    h_dual_rail,
    h_four_field,
    h_single_rail,
    lab_hamiltonian,
)
from dualrail import protocols
from dualrail.propagator import evolve
from dualrail.protocols import (
    ConvergenceError,
    OptimizationError,
    PhaseExtractionError,
    extract_phase_phi,
    gap_runner,
    maxwell_average,
    optimize_deexcitation,
    phase_linearity,
    restore_runner,
    run_excite_restore,
    run_gap_protocol,
    run_traditional_restore,
)
from oracle import analytic_w

CFG = get_config("rb87_5p12")
K_MINUS = CFG.wavevectors.k_excite
OMEGA2 = mhz_to_rad_per_us(2.0)


# --- analytic rail amplitudes -------------------------------------------

def test_analytic_w_static_limit():
    ts = np.linspace(0.0, 1.0, 7)
    om = mhz_to_rad_per_us(1.0)
    w1, w2 = analytic_w(ts, om, K_MINUS, 0.0, 0.0)
    assert np.max(np.abs(w1 - (-1j) * np.sin(om * ts))) < 1e-12
    assert np.max(np.abs(w2)) < 1e-12
    assert np.max(np.abs(np.abs(w1) ** 2 + np.abs(w2) ** 2 - np.sin(om * ts) ** 2)) < 1e-12


def test_analytic_w_matches_numeric_propagation():
    # k v / Omega = 0.01
    om = mhz_to_rad_per_us(1.0)
    v = 0.01 * om / K_MINUS
    z0 = 0.6
    ground = ComplexState.from_label(DUAL_RAIL_BASIS, "1")
    h = lambda t: h_four_field(t, om, K_MINUS, z0, v)
    for t1 in (0.1, 0.25, 0.4):
        out = evolve(ground, h, 0.0, t1)
        w1, w2 = analytic_w(t1, om, K_MINUS, z0, v)
        assert abs(out.amplitude("r1") - w1) < 1e-3
        assert abs(out.amplitude("r2") - w2) < 1e-3


def test_analytic_w_warns_outside_validity():
    om = mhz_to_rad_per_us(1.0)
    with pytest.warns(UserWarning):
        analytic_w(0.1, om, K_MINUS, 0.0, 0.2 * om / K_MINUS)


# --- Doppler phase of the rail amplitudes --------------------------------

def test_phase_zero_at_rest():
    om = mhz_to_rad_per_us(math.sqrt(2.0))
    assert extract_phase_phi(om, K_MINUS, 0.0) == pytest.approx(0.0, abs=1e-10)


def test_phase_small_velocity_value():
    # frozen from this implementation; the linear law gives
    # 0.1285 * 2*pi*k*v/Omega = 2.43e-3 rad at v = 5 mm/s
    om = mhz_to_rad_per_us(math.sqrt(2.0))
    phi = extract_phase_phi(om, K_MINUS, 0.005)
    assert phi == pytest.approx(2.431e-3, abs=5e-5)


def test_phase_linearity_slope():
    om = mhz_to_rad_per_us(math.sqrt(2.0))
    fit = phase_linearity(om, K_MINUS, np.linspace(0.005, 0.1, 8))
    assert fit.slope_ratio == pytest.approx(0.1287, abs=5e-4)
    assert fit.residual < 1e-2 * abs(fit.slope_ratio)


def test_phase_is_even_in_omega_and_the_slope_ratio_takes_its_sign():
    om = mhz_to_rad_per_us(2.0)
    velocities = np.linspace(0.01, 0.1, 5)
    assert np.array_equal(extract_phase_phi(om, K_MINUS, velocities),
                          extract_phase_phi(-om, K_MINUS, velocities))
    plus = phase_linearity(om, K_MINUS, velocities)
    minus = phase_linearity(-om, K_MINUS, velocities)
    assert plus.slope_ratio > 0
    assert minus.slope_ratio == -plus.slope_ratio


def test_phase_linearity_rejects_zero_velocity():
    om = mhz_to_rad_per_us(math.sqrt(2.0))
    with pytest.raises(ValueError, match="v = 0"):
        phase_linearity(om, K_MINUS, np.linspace(-0.1, 0.1, 5))


def test_phase_of_rails_the_drive_barely_reaches_is_refused():
    # far off resonance both rails hold about 6e-8 after the pi pulse: too
    # little for a phase, even beside a velocity that has one
    om = mhz_to_rad_per_us(2.0)
    with pytest.raises(PhaseExtractionError, match="too small"):
        extract_phase_phi(om, K_MINUS, np.array([0.01, 1e6]))


def test_phase_linearity_is_one_propagation(monkeypatch):
    calls = []
    original = protocols.propagate_atom
    monkeypatch.setattr(protocols, "propagate_atom",
                        lambda *a: calls.append(a) or original(*a))
    phase_linearity(mhz_to_rad_per_us(math.sqrt(2.0)), K_MINUS,
                    np.linspace(0.005, 0.1, 12))
    assert len(calls) == 1


# --- deexcitation optimizer ----------------------------------------------

def test_optimizer_beats_reference_point():
    # the error valley is flat to ~1e-9; require our optimum to be at
    # least as good as the benchmark amplitude 2.0288 MHz
    omega_dp = optimize_deexcitation(OMEGA2, K_MINUS, sign=+1)
    params = SimulationParams(omega=OMEGA2, omega_dp=omega_dp, v_mps=0.05)
    err_opt = run_excite_restore(params, K_MINUS).error
    ref = replace(params, omega_dp=mhz_to_rad_per_us(2.0288))
    err_ref = run_excite_restore(ref, K_MINUS).error
    assert err_opt <= err_ref + 1e-9
    assert err_opt == pytest.approx(7.9e-6, rel=0.2)
    assert 1.8 < rad_per_us_to_mhz(omega_dp) < 2.2


def test_optimizer_degenerate_at_zero_velocity():
    assert optimize_deexcitation(OMEGA2, K_MINUS, v_ref=0.0, sign=-1) == -OMEGA2
    assert optimize_deexcitation(OMEGA2, K_MINUS, v_ref=0.0, sign=+1) == OMEGA2


def test_optimizer_sign_validation():
    with pytest.raises(ValueError):
        optimize_deexcitation(OMEGA2, K_MINUS, sign=2)


@pytest.mark.parametrize("v_ref", [math.nan, math.inf, -math.inf])
def test_optimizer_rejects_a_non_finite_reference_velocity(v_ref):
    with pytest.raises(ValueError, match=f"v_ref must be finite, got {v_ref!r}"):
        optimize_deexcitation(OMEGA2, K_MINUS, v_ref=v_ref, sign=+1)


def test_optimizer_bracket_escape():
    # at large reference velocity the optimum leaves the +-10% bracket
    with pytest.raises(OptimizationError):
        optimize_deexcitation(
            mhz_to_rad_per_us(1.0), K_MINUS, v_ref=0.12, sign=+1
        )


@pytest.mark.parametrize("v_ref, optimum_mhz", [
    (0.01, 2.0013), (0.05, 2.0317), (0.1, 2.1179),
])
def test_optimizer_docstring_optima(v_ref, optimum_mhz):
    omega_dp = optimize_deexcitation(OMEGA2, K_MINUS, v_ref=v_ref, sign=+1)
    assert round(rad_per_us_to_mhz(omega_dp), 4) == optimum_mhz


def _scipy_bounded(f, lo, hi, xatol):
    # imported here, as the ODE oracle imports it: no production path does
    from scipy.optimize import minimize_scalar

    return minimize_scalar(f, bounds=(lo, hi), method="bounded",
                           options={"xatol": xatol})


def _recorded(f):
    """``f`` and the list of points it is evaluated at, in order."""
    points = []

    def recording(x):
        points.append(x)
        return f(x)
    return recording, points


def _c3_objective(monkeypatch, sign, v_ref, omega=OMEGA2):
    """The restore-error objective, bracket and tolerance that
    optimize_deexcitation hands its minimizer (at Omega/2pi = 2 MHz unless
    ``omega`` says otherwise)."""
    calls = []
    monkeypatch.setattr(protocols, "_minimize_bounded",
                        lambda *call: calls.append(call) or 0.5 * (call[1] + call[2]))
    optimize_deexcitation(omega, K_MINUS, v_ref=v_ref, sign=sign)
    monkeypatch.undo()
    return calls[0]


def _full_pair_error(omega, sign, v_ref):
    """Restore error of the whole pi + 3*pi pair as a function of
    |Omega_dp|/2pi in MHz: what the optimizer's objective must equal."""
    def error(x_mhz):
        params = SimulationParams(omega=omega, omega_dp=sign * mhz_to_rad_per_us(x_mhz),
                                  v_mps=v_ref)
        return run_excite_restore(params, K_MINUS).error
    return error


@pytest.mark.parametrize("omega_mhz", [1.0, 1.5, 2.0, 3.0, -1.0, -1.5, -2.0, -3.0])
@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("v_ref", [0.01, 0.05, 0.1])
def test_optimizer_objective_is_the_full_pair_bit_for_bit(monkeypatch, omega_mhz, sign, v_ref):
    # the search runs the excitation once and one 3*pi stage per point;
    # splitting the pair must not move a bit of the restore error
    omega = mhz_to_rad_per_us(omega_mhz)
    f, lo, hi, _ = _c3_objective(monkeypatch, sign, v_ref, omega)
    full = _full_pair_error(omega, sign, v_ref)
    for x in np.linspace(lo, hi, 25):
        assert f(x) == full(x), x


@pytest.mark.parametrize("omega_mhz", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("v_ref", [0.01, 0.05, 0.1])
def test_negative_omega_search_mirrors_the_opposite_branch(omega_mhz, sign, v_ref):
    # (-Omega, x) is the exact +-1 similarity of (Omega, -x), so the search
    # at -Omega finds the opposite branch's optimum at +Omega, negated, with
    # the same residual, bit for bit
    omega = mhz_to_rad_per_us(omega_mhz)
    try:
        mirrored = -optimize_deexcitation(omega, K_MINUS, v_ref, -sign)
    except OptimizationError:  # that branch's optimum sits on the bracket edge
        with pytest.raises(OptimizationError):
            optimize_deexcitation(-omega, K_MINUS, v_ref, sign)
        return
    assert optimize_deexcitation(-omega, K_MINUS, v_ref, sign) == mirrored
    residual = [run_excite_restore(SimulationParams(omega=s * omega, omega_dp=s * mirrored,
                                                    v_mps=v_ref), K_MINUS).error for s in (-1, 1)]
    assert residual[0] == residual[1]


@pytest.mark.parametrize("omega_mhz, sign", [(2.0, +1), (1.0, -1), (1.5, -1)])
def test_c3_optima_are_the_full_pair_optima(monkeypatch, omega_mhz, sign):
    omega = mhz_to_rad_per_us(omega_mhz)
    _, lo, hi, xatol = _c3_objective(monkeypatch, sign, 0.05, omega)
    x = protocols._minimize_bounded(_full_pair_error(omega, sign, 0.05), lo, hi, xatol)
    assert optimize_deexcitation(omega, K_MINUS, sign=sign) == sign * mhz_to_rad_per_us(x)


def test_optimizer_diagonalizes_the_excitation_once(monkeypatch):
    # one eigh for the pi excitation, then one per evaluation for its 3*pi
    # stage; running the whole pair per evaluation would take two each
    points, matrices = [], []
    minimize, eigh = protocols._minimize_bounded, np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: matrices.append(h.shape) or eigh(h))
    monkeypatch.setattr(protocols, "_minimize_bounded",
                        lambda f, *rest: minimize(lambda x: points.append(x) or f(x), *rest))
    with engine.counting() as work:
        optimize_deexcitation(OMEGA2, K_MINUS, sign=+1)
    assert len(points) > 5
    assert len(matrices) == 1 + len(points)
    # the engine's own record agrees: one matrix per eigh, one call each
    assert work.eigh_calls == work.calls == len(matrices)
    assert work.eigh_matrices == sum(np.prod(shape[:-2], dtype=int) for shape in matrices)


@pytest.mark.parametrize("case", [
    *[("c3", sign, v_ref) for sign in (+1, -1) for v_ref in (0.01, 0.05, 0.1)],
    ("smooth interior", lambda x: (x - 0.3) ** 2 + math.cos(x), -1.0, 2.0),
    ("bracket edge", lambda x: math.exp(x), 0.5, 1.5),
    ("kink", lambda x: abs(x - 0.7123), 0.0, 1.0),
], ids=lambda case: f"c3{case[1]:+d}-v{case[2]}" if case[0] == "c3" else case[0])
def test_bounded_minimizer_matches_scipy(monkeypatch, case):
    if case[0] == "c3":
        f, lo, hi, xatol = _c3_objective(monkeypatch, *case[1:])
    else:
        (_, f, lo, hi), xatol = case, 1e-6
    f_port, points_port = _recorded(f)
    f_scipy, points_scipy = _recorded(f)
    x = protocols._minimize_bounded(f_port, lo, hi, xatol)
    res = _scipy_bounded(f_scipy, lo, hi, xatol)
    assert res.success
    assert x == res.x
    assert points_port == points_scipy
    assert len(points_port) > 5


@pytest.mark.parametrize("f, xatol, message", [
    # a negative tolerance never converges
    (lambda x: (x - 0.3) ** 2, -1.0, "Maximum number of function calls reached."),
    (lambda x: math.nan, 1e-6, "NaN result encountered."),
])
def test_bounded_minimizer_failures_carry_scipy_messages(f, xatol, message):
    f_port, points_port = _recorded(f)
    f_scipy, points_scipy = _recorded(f)
    res = _scipy_bounded(f_scipy, 0.0, 1.0, xatol)
    assert not res.success and res.message == message
    with pytest.raises(OptimizationError) as exc_info:
        protocols._minimize_bounded(f_port, 0.0, 1.0, xatol)
    assert str(exc_info.value) == message
    assert points_port == points_scipy
    if message.startswith("Maximum"):
        assert len(points_port) == 500


@pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (0.0, math.inf), (1.0, 0.0)])
def test_bounded_minimizer_rejects_bad_bounds(lo, hi):
    with pytest.raises(ValueError):
        protocols._minimize_bounded(lambda x: x * x, lo, hi, 1e-6)


def test_restore_beats_unoptimized():
    omega_dp = optimize_deexcitation(OMEGA2, K_MINUS, sign=+1)
    p_opt = SimulationParams(omega=OMEGA2, omega_dp=omega_dp, v_mps=0.05)
    p_raw = SimulationParams(omega=OMEGA2, omega_dp=OMEGA2, v_mps=0.05)
    assert (
        run_excite_restore(p_opt, K_MINUS).error
        < run_excite_restore(p_raw, K_MINUS).error
    )


# --- excite/restore -------------------------------------------------------

def test_restore_at_rest_is_exact_pi_phase():
    params = SimulationParams(omega=OMEGA2, omega_dp=-OMEGA2, v_mps=0.0)
    out = run_excite_restore(params, K_MINUS)
    assert out.error < 1e-10
    assert abs(abs(out.ground_phase) - math.pi) < 1e-10


def test_restore_reference_point():
    params = SimulationParams(
        omega=OMEGA2, omega_dp=-mhz_to_rad_per_us(2.0399), v_mps=0.05
    )
    out = run_excite_restore(params, K_MINUS)
    assert out.error == pytest.approx(1.0e-5, rel=0.2)
    assert abs(abs(out.ground_phase) - math.pi) < 1e-8
    assert out.r3_leak == 0.0


@settings(max_examples=8, deadline=None)
@given(z0=st.floats(min_value=-10.0, max_value=10.0))
def test_restore_is_z0_invariant(z0):
    base = SimulationParams(
        omega=OMEGA2, omega_dp=-mhz_to_rad_per_us(2.0399), v_mps=0.05
    )
    ref = run_excite_restore(base, K_MINUS)
    out = run_excite_restore(replace(base, z0_um=z0), K_MINUS)
    assert abs(out.ground_population - ref.ground_population) < 1e-10
    # the exact engine returns the pi phase as +pi or -pi by roundoff
    assert abs(math.remainder(out.ground_phase - ref.ground_phase, 2.0 * math.pi)) < 1e-8


# --- gap protocol ----------------------------------------------------------

GAP_PARAMS = SimulationParams(
    omega=OMEGA2,
    omega_dp=-mhz_to_rad_per_us(2.0339),
    omega_if=OMEGA2,
    n_gap_cycles=1,
    v_mps=0.05,
)


def test_gap_reference_point():
    out = run_gap_protocol(GAP_PARAMS, CFG.wavevectors)
    assert out.r3_leak == pytest.approx(9.2e-6, rel=0.3)
    assert out.error == pytest.approx(5.0e-5, rel=0.2)
    assert abs(abs(out.ground_phase) - math.pi) < 1e-8


def test_gap_protocol_is_one_engine_call(monkeypatch):
    calls, matrices = [], []
    original_run, original_eigh = engine.propagate_stages, np.linalg.eigh
    monkeypatch.setattr(engine, "propagate_stages",
                        lambda *a: calls.append(a) or original_run(*a))
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda h: matrices.append(h.reshape(-1, *h.shape[-2:]).shape[0])
                        or original_eigh(h))
    run_gap_protocol(GAP_PARAMS, CFG.wavevectors)
    # excite, infrared wait, deexcite: one matrix each at a scalar velocity,
    # in one call, as all three drive the one atom
    assert len(calls) == 1
    assert matrices == [1 + 1 + 1]


@pytest.mark.parametrize("n_cycles", [1, 2])
@pytest.mark.parametrize("z0", [0.0, 3.7])
def test_gap_r3_leak_is_what_the_wait_left(n_cycles, z0):
    # the 3*pi deexcitation does not couple r3, so the final r3 population
    # is the one at the end of the wait, bit for bit
    v = np.linspace(-0.4, 0.4, 201)
    params = replace(GAP_PARAMS, n_gap_cycles=n_cycles, v_mps=v, z0_um=z0)
    out = run_gap_protocol(params, CFG.wavevectors)
    wait = gap_wait_time(n_cycles, OMEGA2), OMEGA2, CFG.wavevectors.k_wait
    stages = resilient_pair(OMEGA2, params.omega_dp, K_MINUS, wait)
    space = TwoAtomSpace(GAP_BASIS, ("0",))
    shelved, _ = propagate_stages(np.eye(space.dim)[0], space, stages[:2], v, 0.0, z0, 0.0)
    assert np.array_equal(out.r3_leak, np.abs(shelved[:, GAP_BASIS.index("r3")]) ** 2)


def test_gap_at_rest():
    out = run_gap_protocol(replace(GAP_PARAMS, v_mps=0.0), CFG.wavevectors)
    assert out.error < 1e-9
    assert abs(abs(out.ground_phase) - math.pi) < 1e-8


def test_gap_wait_time_must_close_cycles():
    with pytest.raises(ValueError):
        run_gap_protocol(replace(GAP_PARAMS, t_wait_us=0.5), CFG.wavevectors)
    # the exact closed-cycle value passes
    good = replace(GAP_PARAMS, t_wait_us=math.sqrt(2.0) / 2.0)
    run_gap_protocol(good, CFG.wavevectors)


def test_gap_wait_time_is_held_to_the_cycle_condition_at_1e_12():
    expected = gap_wait_time(1, GAP_PARAMS.omega_if)
    for off in (1e-9, -1e-6):
        with pytest.raises(ValueError, match="breaks the full-cycle condition"):
            run_gap_protocol(replace(GAP_PARAMS, t_wait_us=expected * (1 + off)), CFG.wavevectors)
    run_gap_protocol(replace(GAP_PARAMS, t_wait_us=expected * (1 + 1e-14)), CFG.wavevectors)


def test_dual_rail_protocols_are_mirror_symmetric():
    """(v, z0) -> (-v, -z0) swaps the rails r1 <-> r2, whose wavevectors
    are opposite in the V configuration, and leaves the ground state
    alone: a lone dual-rail atom's endpoint observables do not change.
    The single-rail baseline keeps only its population.  The two-atom
    rotation-error grid has no such symmetry (ROADMAP, "Struck")."""
    rng = np.random.default_rng(2019)
    v, z0 = rng.uniform(-0.5, 0.5, 50), rng.uniform(-5.0, 5.0, 50)
    gap = partial(run_gap_protocol, wavevectors=CFG.wavevectors)
    restore = partial(run_excite_restore, k=K_MINUS)
    restore_params = SimulationParams(omega=OMEGA2, omega_dp=-mhz_to_rad_per_us(2.0399))
    for run, params in ((gap, GAP_PARAMS), (restore, restore_params)):
        a = run(replace(params, v_mps=v, z0_um=z0))
        b = run(replace(params, v_mps=-v, z0_um=-z0))
        for field in ("ground_population", "r3_leak", "rydberg_time_us"):
            assert np.max(np.abs(getattr(a, field) - getattr(b, field))) < 1e-13, field
        phase_gap = np.remainder(a.ground_phase - b.ground_phase + math.pi, 2.0 * math.pi)
        assert np.max(np.abs(phase_gap - math.pi)) < 1e-13
    # flipping v alone moves the gap population, so the above is not vacuous
    a = gap(replace(GAP_PARAMS, v_mps=v, z0_um=z0))
    b = gap(replace(GAP_PARAMS, v_mps=-v, z0_um=z0))
    assert np.max(np.abs(a.ground_population - b.ground_population)) > 1e-3
    # the single-rail phase keeps its Doppler term, which flips with v
    traditional = SimulationParams(omega=OMEGA2, t_wait_us=gap_wait_time(1, OMEGA2))
    a = run_traditional_restore(replace(traditional, v_mps=v, z0_um=z0), K_MINUS)
    b = run_traditional_restore(replace(traditional, v_mps=-v, z0_um=-z0), K_MINUS)
    assert np.max(np.abs(a.ground_population - b.ground_population)) < 1e-13


def test_gap_error_decreases_away_from_origin():
    errs = {
        z0: run_gap_protocol(replace(GAP_PARAMS, z0_um=z0), CFG.wavevectors).error
        for z0 in (0.0, 5.0)
    }
    assert errs[5.0] < errs[0.0]


def test_gap_rydberg_time_spans_wait():
    out = run_gap_protocol(GAP_PARAMS, CFG.wavevectors)
    # half of each optical pulse plus the full shelved wait
    t_pi = math.pi / (math.sqrt(2.0) * OMEGA2)
    t_dn = 3.0 * math.pi / (math.sqrt(2.0) * abs(GAP_PARAMS.omega_dp))
    expected = 0.5 * t_pi + math.sqrt(2.0) / 2.0 + 0.5 * t_dn
    assert out.rydberg_time_us == pytest.approx(expected, rel=1e-3)


# --- traditional baseline --------------------------------------------------

def test_traditional_at_rest():
    params = SimulationParams(
        omega=mhz_to_rad_per_us(2.0 * math.sqrt(2.0)),
        t_wait_us=math.sqrt(2.0) / 2.0,
    )
    out = run_traditional_restore(params, K_MINUS)
    assert out.ground_population == pytest.approx(1.0, abs=1e-9)
    assert abs(out.ground_phase) == pytest.approx(math.pi, abs=1e-9)
    # half of each pi pulse plus the whole wait in the Rydberg state
    t_pi = math.pi / params.omega
    assert out.rydberg_time_us == pytest.approx(t_pi + params.t_wait_us, rel=1e-12)


def test_traditional_phase_error_grows_with_wait():
    base = SimulationParams(
        omega=mhz_to_rad_per_us(2.0 * math.sqrt(2.0)), v_mps=0.05
    )
    short = run_traditional_restore(replace(base, t_wait_us=0.2), K_MINUS)
    long = run_traditional_restore(replace(base, t_wait_us=1.0), K_MINUS)
    assert abs(abs(long.ground_phase) - math.pi) > abs(
        abs(short.ground_phase) - math.pi
    )


# --- Maxwell averaging ------------------------------------------------------

def test_average_calls_its_runner_once_with_the_whole_grid():
    calls = []

    def runner(v):
        calls.append(np.copy(v))
        return gap_runner(GAP_PARAMS, CFG.wavevectors, v)

    avg = maxwell_average(runner, 10.0, CFG.species)
    assert len(calls) == 1
    assert np.array_equal(calls[0], maxwell_grid(10.0, CFG.species))
    assert avg.n_points == 201


def test_average_fields_are_bit_equal_to_the_one_atom_maxwell_mean():
    vels = maxwell_grid(10.0, CFG.species)
    out = gap_runner(GAP_PARAMS, CFG.wavevectors, vels)
    avg = maxwell_average(partial(gap_runner, GAP_PARAMS, CFG.wavevectors), 10.0, CFG.species)
    for field, values in (
        ("ground_population", out.ground_population),
        ("mean_abs_phase", np.abs(out.ground_phase)),
        ("r3_leak", out.r3_leak),
        ("rydberg_time_us", out.rydberg_time_us),
    ):
        assert getattr(avg, field) == maxwell_rule(vels, 10.0, CFG.species).mean(values)


def test_average_over_a_reordered_grid_equals_the_ascending_one():
    # the mass of a reversed grid read -0.999999 and of a shuffled one
    # 0.8705, and both were refused; the mean never depended on the order
    runner = partial(gap_runner, GAP_PARAMS, CFG.wavevectors)
    grid = maxwell_grid(10.0, CFG.species)
    ascending = maxwell_average(runner, 10.0, CFG.species, velocities=grid)
    permuted = np.random.default_rng(5).permutation(grid)
    for reordered in (grid[::-1], permuted):
        avg = maxwell_average(runner, 10.0, CFG.species, velocities=reordered)
        assert avg.weight_mass == ascending.weight_mass
        for field in ("ground_population", "mean_abs_phase", "r3_leak", "rydberg_time_us"):
            assert getattr(avg, field) == pytest.approx(getattr(ascending, field), rel=1e-14)


def test_average_weighs_its_grid_once(monkeypatch):
    calls = []

    def counting(name, original):
        def counted(*args):
            calls.append(name)
            return original(*args)
        return counted

    for name in ("maxwell_weight", "continuum_weight_mass"):
        monkeypatch.setattr(core, name, counting(name, getattr(core, name)))
    maxwell_average(partial(gap_runner, GAP_PARAMS, CFG.wavevectors), 10.0, CFG.species)
    # one evaluation for the weights and one inside the mass
    assert sorted(calls) == ["continuum_weight_mass", "maxwell_weight", "maxwell_weight"]


def test_weightless_grid_is_refused_before_the_runner_runs():
    def runner(v):
        raise AssertionError("ran the protocol before weighing the grid")

    with pytest.raises(ConvergenceError, match="sum to 0 on the 4-point grid"):
        maxwell_average(runner, 1e-30, CFG.species, velocities=np.linspace(-0.5, 0.5, 4))
    with pytest.raises(ConvergenceError, match="carries 1.994719"):
        maxwell_average(runner, 10.0, CFG.species, velocities=maxwell_grid(10.0, CFG.species, 3))


def test_average_rejects_undersized_grid():
    runner = partial(restore_runner, GAP_PARAMS, K_MINUS)
    narrow = np.linspace(-0.01, 0.01, 11)  # ~0.3 sigma at 10 uK
    with pytest.raises(ConvergenceError):
        maxwell_average(runner, 10.0, CFG.species, velocities=narrow)
    # a lone point carries none of the weight: it certifies no average
    with pytest.raises(ConvergenceError, match="carries 0.000000"):
        maxwell_average(runner, 10.0, CFG.species, velocities=np.array([0.05]))


@pytest.mark.parametrize("n_points, mass", [(3, 1.9947), (5, 1.0850), (7, 1.0016)])
def test_average_rejects_a_grid_that_overcounts_the_weight(n_points, mass):
    # +-5 sigma, but too coarse: the trapezoidal mass overshoots 1
    runner = partial(restore_runner, GAP_PARAMS, K_MINUS)
    coarse = maxwell_grid(10.0, CFG.species, n_points)
    with pytest.raises(ConvergenceError, match=f"carries {mass:.4f}"):
        maxwell_average(runner, 10.0, CFG.species, velocities=coarse)


def test_average_accepts_a_grid_within_the_mass_tolerance():
    # 8 points carry 0.99987 and 9 points 1.0000047 of the weight
    runner = partial(restore_runner, GAP_PARAMS, K_MINUS)
    for n_points in (8, 9):
        grid = maxwell_grid(10.0, CFG.species, n_points)
        avg = maxwell_average(runner, 10.0, CFG.species, velocities=grid)
        assert abs(avg.weight_mass - 1.0) <= 1e-3


def test_transfer_averages_match_reference():
    # cos/sin drive at Omega/2pi = 0.5 MHz averaged over 10 uK:
    # ground population 1.1e-6 at 0.5 us and 0.9998 at 2 us.  As in
    # `dualrail excite`, it is the two-rail drive at sqrt(2)*Omega in the
    # rotated basis, rotated back; one batched run samples both times
    # (one array-end-time stage) over the grid.
    om = mhz_to_rad_per_us(0.5)
    drive = AtomDrive(math.sqrt(2.0) * om, K_MINUS, OPTICAL_DUAL)
    vels = maxwell_grid(10.0, CFG.species)
    from dualrail.core import maxwell_weight

    w = maxwell_weight(vels, 10.0, CFG.species)
    w = w / w.sum()
    ends = np.tile([0.5, 2.0], vels.size)
    final, _ = propagate_atom([GateStage(0.0, ends, control=drive)], np.repeat(vels, 2), 0.0)
    rails = final.amplitudes[:, [final.basis.index(level) for level in DUAL_RAIL_BASIS]]
    rotate_back = dual_rail_rotation().conj().T
    ground = ComplexState(DUAL_RAIL_BASIS, rails @ rotate_back.T).population("1")
    pop05, pop20 = ground.reshape(-1, 2).T
    assert float(w @ pop05) == pytest.approx(1.1e-6, rel=0.3)
    assert 1.0 - float(w @ pop20) == pytest.approx(2.0e-4, rel=0.25)


# --- the exact engine against the adaptive oracle --------------------------

def _ground_amplitude(out):
    return math.sqrt(out.ground_population) * np.exp(1j * out.ground_phase)


def _chain_evolve(state, pieces):
    """DOP853 through (builder, t0, t1) pieces, in order."""
    for h, t0, t1 in pieces:
        state = evolve(state, h, t0, t1)
    return state


@settings(max_examples=12, deadline=None)
@given(
    v=st.floats(min_value=-0.3, max_value=0.3),
    z0=st.floats(min_value=-10.0, max_value=10.0),
    dp_mhz=st.floats(min_value=1.8, max_value=2.3),
)
def test_protocols_match_adaptive_oracle(v, z0, dp_mhz):
    omega_dp = -mhz_to_rad_per_us(dp_mhz)
    t_pi, t_dn = pi_time(OMEGA2), 3.0 * pi_time(omega_dp)

    # pi + 3*pi restore on the hand-written two-rail builder
    out = run_excite_restore(
        SimulationParams(omega=OMEGA2, omega_dp=omega_dp, v_mps=v, z0_um=z0), K_MINUS
    )
    ref = _chain_evolve(ComplexState.from_label(DUAL_RAIL_BASIS, "1"), [
        (lambda t: h_dual_rail(t, OMEGA2, K_MINUS, z0, v), 0.0, t_pi),
        (lambda t: h_dual_rail(t, omega_dp, K_MINUS, z0, v), t_pi, t_pi + t_dn),
    ])
    assert abs(_ground_amplitude(out) - ref.amplitude("1")) < 1e-8

    # gap protocol on the lab-frame four-level Hamiltonian
    params = SimulationParams(omega=OMEGA2, omega_dp=omega_dp, omega_if=OMEGA2,
                              n_gap_cycles=1, v_mps=v, z0_um=z0)
    out = run_gap_protocol(params, CFG.wavevectors)
    space = TwoAtomSpace(GAP_BASIS, ("0",))
    t_w = t_pi + gap_wait_time(1, OMEGA2)
    pieces = []
    for drive, t0, t1 in (
        (AtomDrive(OMEGA2, K_MINUS, OPTICAL_DUAL), 0.0, t_pi),
        (AtomDrive(OMEGA2, CFG.wavevectors.k_wait, INFRARED), t_pi, t_w),
        (AtomDrive(omega_dp, K_MINUS, OPTICAL_DUAL), t_w, t_w + t_dn),
    ):
        stage = GateStage(t0, t1, control=drive)
        pieces.append((lambda t, s=stage: lab_hamiltonian(space, s, t, v, 0.0, z0, 0.0), t0, t1))
    shelved = _chain_evolve(ComplexState.from_label(GAP_BASIS, "1"), pieces[:2])
    ref = _chain_evolve(shelved, pieces[2:])
    assert abs(_ground_amplitude(out) - ref.amplitude("1")) < 1e-8
    assert abs(out.r3_leak - shelved.population("r3")) < 1e-8

    # single-rail pi / idle / pi; the idle window only advances the coordinate
    om = mhz_to_rad_per_us(2.0 * math.sqrt(2.0))
    out = run_traditional_restore(
        SimulationParams(omega=om, t_wait_us=0.5, v_mps=v, z0_um=z0), K_MINUS
    )
    h = lambda t: h_single_rail(t, om, K_MINUS, z0, v)
    t_pi1 = math.pi / om
    ref = _chain_evolve(ComplexState.from_label(SINGLE_RAIL_BASIS, "1"), [
        (h, 0.0, t_pi1), (h, t_pi1 + 0.5, 2.0 * t_pi1 + 0.5),
    ])
    assert abs(_ground_amplitude(out) - ref.amplitude("1")) < 1e-8

    # rail phase after one pi pulse at z0 = 0
    om = -omega_dp
    ref = evolve(ComplexState.from_label(DUAL_RAIL_BASIS, "1"),
                 lambda t: h_dual_rail(t, om, K_MINUS, 0.0, v), 0.0, pi_time(om))
    phi_ref = 0.5 * float(np.angle(ref.amplitude("r1") / ref.amplitude("r2")))
    assert abs(extract_phase_phi(om, K_MINUS, v) - phi_ref) < 1e-8


# --- batched runs against per-point scalar runs ------------------------------

def _assert_batch_matches_points(run, params, v, z0):
    """A run over arrays equals per-point scalar runs to 1e-12 (phases modulo
    2*pi: a restored pi may come back as +pi or -pi by roundoff)."""
    batch = run(replace(params, v_mps=v, z0_um=z0))
    v, z0 = np.broadcast_arrays(v, z0)
    for i in np.ndindex(v.shape):
        point = run(replace(params, v_mps=float(v[i]), z0_um=float(z0[i])))
        for name in ("ground_population", "r3_leak", "rydberg_time_us"):
            assert abs(getattr(batch, name)[i] - getattr(point, name)) < 1e-12, name
        assert abs(math.remainder(batch.ground_phase[i] - point.ground_phase,
                                  2.0 * math.pi)) < 1e-12


@settings(max_examples=12, deadline=None)
@given(
    v=st.lists(st.floats(min_value=-0.5, max_value=0.5), min_size=1, max_size=6),
    z0=st.floats(min_value=-10.0, max_value=10.0),
    z0_array=st.booleans(),
)
def test_batched_protocols_match_scalar_runs(v, z0, z0_array):
    v = np.array(v)
    z0 = z0 + np.linspace(-3.0, 3.0, v.size) if z0_array else z0
    gap = lambda p: run_gap_protocol(p, CFG.wavevectors)
    trad = SimulationParams(omega=mhz_to_rad_per_us(2.0 * math.sqrt(2.0)), t_wait_us=0.5)
    _assert_batch_matches_points(lambda p: run_excite_restore(p, K_MINUS), GAP_PARAMS, v, z0)
    _assert_batch_matches_points(gap, GAP_PARAMS, v, z0)
    _assert_batch_matches_points(lambda p: run_traditional_restore(p, K_MINUS), trad, v, z0)
    # a coordinate array against one velocity
    _assert_batch_matches_points(gap, GAP_PARAMS, float(v[0]), np.linspace(-5.0, 5.0, 4))

    om = mhz_to_rad_per_us(math.sqrt(2.0))
    phis = extract_phase_phi(om, K_MINUS, v)
    for v_i, phi in zip(v, phis):
        assert abs(phi - extract_phase_phi(om, K_MINUS, float(v_i))) < 1e-12


def test_protocols_broadcast_velocities_against_coordinates():
    # propagate_atom takes v and z0 that broadcast against each other: a
    # (2, 1) velocity column against a (1, 3) coordinate row is a (2, 3) batch
    v = np.array([[-0.3], [0.05]])
    z0 = np.array([[-4.0, 0.0, 2.5]])
    trad = SimulationParams(omega=mhz_to_rad_per_us(2.0 * math.sqrt(2.0)), t_wait_us=0.5)
    _assert_batch_matches_points(lambda p: run_excite_restore(p, K_MINUS), GAP_PARAMS, v, z0)
    _assert_batch_matches_points(lambda p: run_gap_protocol(p, CFG.wavevectors),
                                 GAP_PARAMS, v, z0)
    _assert_batch_matches_points(lambda p: run_traditional_restore(p, K_MINUS), trad, v, z0)
    final, t_r = propagate_atom(resilient_pair(OMEGA2, -OMEGA2, K_MINUS), v, z0)
    assert final.amplitudes.shape == (2, 3, 3) and np.shape(t_r) == (2, 3)


def test_an_array_drive_field_is_a_type_error():
    # only velocities and coordinates batch: a train is cached by its scalar
    # drive fields, so an array amplitude cannot key it
    with pytest.raises(TypeError, match="unhashable"):
        run_excite_restore(SimulationParams(omega=np.array([OMEGA2]), omega_dp=-OMEGA2), K_MINUS)
