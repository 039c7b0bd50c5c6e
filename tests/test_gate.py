import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dualrail.core import get_config, mhz_to_rad_per_us
from dualrail.gate import (
    GateParams,
    averaged_rotation_error,
    decay_error,
    decay_error_analytic,
    fidelity,
    gate_duration,
    gate_report,
    grid_to_csv,
    lab_hamiltonian,
    maxwell_grid_average,
    propagate_stages,
    rotation_error,
    simulate_gate_input,
    velocity_grid,
)
from dualrail.gate import _dual_rail_stages, _rotating_hamiltonian, _spaces
from dualrail.hamiltonians import NINE_BASIS, h_dual_rail, h_gate_nine, pi_time
from dualrail.propagator import ComplexState, evolve

CFG = get_config("rb87_5p12")
OMEGA = mhz_to_rad_per_us(2.0)


def make_params(n_cycles=1, **kwargs):
    defaults = dict(
        omega=OMEGA,
        omega_dp=-mhz_to_rad_per_us(2.0339),
        omega_t=OMEGA,
        omega_if=OMEGA,
        n_gap_cycles=n_cycles,
        config=CFG,
    )
    defaults.update(kwargs)
    return GateParams(**defaults)


PARAMS = make_params()


# --- rotation error ----------------------------------------------------------

def test_rotation_error_perfect_gate():
    assert rotation_error(-1.0, -1.0, -1.0) == pytest.approx(0.0, abs=1e-15)


def test_rotation_error_hand_computed_cases():
    # a = b = -1, c = +1: trace 2, purity 4 -> 1 - 8/20
    assert rotation_error(-1.0, -1.0, 1.0) == pytest.approx(0.6)
    # total leakage: trace 1, purity 1 -> 1 - 2/20
    assert rotation_error(0.0, 0.0, 0.0) == pytest.approx(0.9)


@given(
    st.tuples(
        *(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=-math.pi, max_value=math.pi),
            )
            for _ in range(3)
        )
    )
)
def test_rotation_error_bounded(entries):
    a, b, c = (r * cmath.exp(1j * p) for r, p in entries)
    e = rotation_error(a, b, c)
    assert -1e-12 <= e <= 1.0


# --- durations ----------------------------------------------------------------

def test_gate_duration_formula():
    d = gate_duration(PARAMS)
    expected = (
        pi_time(OMEGA)
        + math.sqrt(2.0) / 2.0
        + 3.0 * math.pi / (math.sqrt(2.0) * mhz_to_rad_per_us(2.0339))
    )
    assert d == pytest.approx(expected, rel=1e-12)
    assert d == pytest.approx(1.405, abs=1e-3)


def test_traditional_duration():
    assert gate_duration(PARAMS, "traditional") == pytest.approx(1.061, abs=1e-3)
    assert gate_duration(make_params(2), "traditional") == pytest.approx(
        1.768, abs=1e-3
    )


def test_duration_unknown_method():
    with pytest.raises(ValueError):
        gate_duration(PARAMS, "bogus")


# --- parameter validation --------------------------------------------------

def test_target_train_must_fit_wait_window():
    with pytest.raises(ValueError):
        # slow target: 4*pi/(sqrt(2)*omega_t) > t_wait
        make_params(omega_t=mhz_to_rad_per_us(1.5))


@pytest.mark.parametrize("bad", [
    dict(omega=float("nan")), dict(omega_dp=float("inf")),
    dict(omega_if=float("nan")), dict(z0_target_um=float("nan")),
    dict(omega=0.0), dict(omega_dp=0.0), dict(omega_t=0.0),
])
def test_params_reject_non_finite_and_zero_amplitudes(bad):
    with pytest.raises(ValueError):
        make_params(**bad)


def test_target_deexcite_mode_validation():
    with pytest.raises(ValueError):
        make_params(target_deexcite="other")


def test_missing_interaction_table():
    bare = get_config("cs133_6p12")
    with pytest.raises(ValueError):
        make_params(config=bare).pair_shift("r1", "r1")


def test_optimized_deexcite_train_must_fit_window():
    # in "optimized" mode the 3*pi amplitude is |omega_dp|; a small value
    # stretches the train past the wait window
    params = make_params(
        omega_dp=-mhz_to_rad_per_us(1.2), target_deexcite="optimized"
    )
    with pytest.raises(ValueError):
        simulate_gate_input("11", params)


def test_traditional_wait_must_hold_target_pulse():
    params = make_params(omega_if=mhz_to_rad_per_us(8.0), omega_t=mhz_to_rad_per_us(8.0))
    with pytest.raises(ValueError):
        simulate_gate_input("11", params, method="traditional")


# --- single inputs -----------------------------------------------------------

def test_input_00_is_trivial():
    amp, t_r = simulate_gate_input("00", PARAMS)
    assert amp == 1.0
    assert t_r == 0.0


def test_input_01_at_rest():
    amp, t_r = simulate_gate_input("01", PARAMS)
    assert abs(amp + 1.0) < 1e-12
    # target holds Rydberg population for half of its 4*pi train
    assert t_r == pytest.approx(2.0 * pi_time(PARAMS.omega_t), rel=1e-9)


def test_input_10_at_rest():
    amp, t_r = simulate_gate_input("10", PARAMS)
    assert abs(amp + 1.0) < 1e-9
    t_pi = pi_time(PARAMS.omega)
    t_dn = 3.0 * pi_time(PARAMS.omega_dp)
    expected = 0.5 * t_pi + PARAMS.t_wait + 0.5 * t_dn
    assert t_r == pytest.approx(expected, rel=1e-6)


def test_input_label_validation():
    with pytest.raises(ValueError):
        simulate_gate_input("22", PARAMS)


def test_blockade_limited_error_at_rest():
    # with both atoms at rest the only loss channel is the finite
    # blockade; the leakage part of the error must sit within a factor
    # of two of (sqrt(2)*Omega/V11)^2 / 8, while the coherent blockade
    # phase on c adds on top of that estimate
    rep = gate_report(PARAMS, 0.0, 0.0)
    floor = (math.sqrt(2.0) * OMEGA / PARAMS.pair_shift("r1", "r1")) ** 2 / 8.0
    leakage_only = rotation_error(-abs(rep.a), -abs(rep.b), -abs(rep.c))
    assert floor / 2.0 < leakage_only < 2.0 * floor
    assert rep.rotation_error < 5.0 * floor


def test_rydberg_times_10_and_11_agree():
    rep = gate_report(PARAMS, 0.0, 0.0)
    t10 = rep.rydberg_times_us["10"]
    t11 = rep.rydberg_times_us["11"]
    assert abs(t11 - t10) / t10 < 0.05


# --- decay error --------------------------------------------------------------

def test_decay_error_zero_without_residence():
    assert decay_error(0.0, 0.0, 0.0, 787.0) == 0.0
    with pytest.raises(ValueError):
        decay_error(1.0, 1.0, 1.0, 0.0)


def test_decay_error_analytic_value():
    assert decay_error_analytic(OMEGA, 787.0) == pytest.approx(7.86e-4, rel=1e-3)


def test_numeric_decay_matches_analytic():
    rep = gate_report(PARAMS, 0.0, 0.0)
    analytic = decay_error_analytic(OMEGA, PARAMS.tau_us)
    assert rep.decay_error == pytest.approx(analytic, rel=0.1)


# --- cross-validation of the stage engine -------------------------------------

def test_frame_engine_matches_adaptive_integrator():
    full, _, _ = _spaces(PARAMS, "dual_rail")
    stages = _dual_rail_stages(PARAMS)
    v_c, v_t, z0c, z0t = 0.13, -0.07, 0.8, -1.3
    psi0 = np.zeros(full.dim, dtype=complex)
    psi0[full.index("1", "1")] = 1.0
    psi_frame, _ = propagate_stages(
        psi0, full, stages, v_c, v_t, z0c, z0t
    )
    labels = tuple(f"{c}|{t}" for c, t in full.labels())
    state = ComplexState(labels, psi0)
    for st_ in stages:
        h = lambda t, st_=st_: lab_hamiltonian(full, st_, t, v_c, v_t, z0c, z0t)
        state = evolve(state, h, st_.t0, st_.t1, rtol=1e-12, atol=1e-14)
    assert np.max(np.abs(state.amplitudes - psi_frame)) < 1e-8


def test_wait_stage_block_diagonal():
    # with the control drive off, nothing couples the control-ground
    # block to the shelved block: the piecewise bookkeeping is exact
    full, _, _ = _spaces(PARAMS, "dual_rail")
    stage_b = _dual_rail_stages(PARAMS)[1]
    h, _, _ = _rotating_hamiltonian(full, stage_b, 0.1, -0.2)
    ground_block = [full.index("1", t) for t in ("1", "r1", "r2")]
    others = [i for i in range(full.dim) if i not in ground_block]
    assert np.max(np.abs(h[np.ix_(ground_block, others)])) == 0.0


def test_piecewise_shelved_evolution_matches_engine():
    # stage-by-stage reassembly through the nine-level Hamiltonian
    params = PARAMS
    v_c, v_t = 0.11, -0.04
    k = CFG.wavevectors.k_excite
    k_w = CFG.wavevectors.k_wait
    t_pi_c = pi_time(params.omega)
    t_pi_t = pi_time(params.omega_t)
    shifts = params.nine_level_shifts()

    # control excitation on its own three levels (basis r2, r1, 1)
    ctrl = ComplexState.from_label(("r2", "r1", "1"), "1")
    h_c = lambda t: h_dual_rail(t, params.omega, k, 0.0, v_c)
    ctrl = evolve(ctrl, h_c, 0.0, t_pi_c, rtol=1e-12, atol=1e-14)

    # residual ground part evolves like a lone target atom
    targ = ComplexState.from_label(("r2", "r1", "1"), "1")
    h_t1 = lambda t: h_dual_rail(t, params.omega_t, k, 0.0, v_t)
    h_t2 = lambda t: h_dual_rail(t, -params.omega_t, k, 0.0, v_t)
    targ = evolve(targ, h_t1, t_pi_c, t_pi_c + t_pi_t, rtol=1e-12, atol=1e-14)
    targ = evolve(
        targ, h_t2, t_pi_c + t_pi_t, t_pi_c + 4.0 * t_pi_t,
        rtol=1e-12, atol=1e-14,
    )

    # shelved part under the nine-level Hamiltonian, target sign flip at 1 pi
    nine = np.zeros(9, dtype=complex)
    nine[NINE_BASIS.index("r11")] = ctrl.amplitude("r1")
    nine[NINE_BASIS.index("r21")] = ctrl.amplitude("r2")
    state9 = ComplexState(NINE_BASIS, nine)
    for om_t, t0, t1 in (
        (params.omega_t, t_pi_c, t_pi_c + t_pi_t),
        (-params.omega_t, t_pi_c + t_pi_t, t_pi_c + 4.0 * t_pi_t),
    ):
        h9 = lambda t, om_t=om_t: h_gate_nine(
            t, om_t, params.omega_if, k, k_w, v_c * t, v_t * t, shifts
        )
        state9 = evolve(state9, h9, t0, t1, rtol=1e-12, atol=1e-14)

    # reassemble and run the deexcitation on the full space
    full, _, _ = _spaces(params, "dual_rail")
    psi = np.zeros(full.dim, dtype=complex)
    cg = ctrl.amplitude("1")
    psi[full.index("1", "1")] = cg * targ.amplitude("1")
    psi[full.index("1", "r1")] = cg * targ.amplitude("r1")
    psi[full.index("1", "r2")] = cg * targ.amplitude("r2")
    for label in NINE_BASIS:
        c_level, t_level = {
            "r3r2": ("r3", "r2"), "r3r1": ("r3", "r1"), "r31": ("r3", "1"),
            "r2r2": ("r2", "r2"), "r2r1": ("r2", "r1"), "r21": ("r2", "1"),
            "r1r2": ("r1", "r2"), "r1r1": ("r1", "r1"), "r11": ("r1", "1"),
        }[label]
        psi[full.index(c_level, t_level)] = state9.amplitude(label)

    stage_c = _dual_rail_stages(params)[-1]
    labels = tuple(f"{c}|{t}" for c, t in full.labels())
    state = ComplexState(labels, psi)
    h_cde = lambda t: lab_hamiltonian(full, stage_c, t, v_c, v_t, 0.0, 0.0)
    state = evolve(state, h_cde, stage_c.t0, stage_c.t1, rtol=1e-12, atol=1e-14)
    c_piecewise = state.amplitudes[full.index("1", "1")]

    c_engine, _ = simulate_gate_input("11", params, v_c, v_t)
    assert abs(c_piecewise - c_engine) < 1e-8


# --- grids and averages ---------------------------------------------------------

def test_nine_level_drives_off_is_pure_phase_accumulation():
    # with both drives off the nine-level Hamiltonian is diagonal and
    # commutes with itself at all times: evolution is exactly e^{-i V t}
    shifts = PARAMS.nine_level_shifts()
    h = lambda t: h_gate_nine(t, 0.0, 0.0, 5.35, 5.53, 0.1 * t, -0.2 * t, shifts)
    rng = np.random.default_rng(3)
    amps = rng.normal(size=9) + 1j * rng.normal(size=9)
    amps /= np.linalg.norm(amps)
    psi0 = ComplexState(NINE_BASIS, amps)
    T = 0.8
    out = evolve(psi0, h, 0.0, T, rtol=1e-12, atol=1e-14)
    expected = np.exp(-1j * np.diag(h(0.0)) * T) * amps
    assert np.max(np.abs(out.amplitudes - expected)) < 1e-9


def test_velocity_grid_shape():
    v = velocity_grid()
    assert v.size == 100
    assert v[0] == -0.5 and v[-1] == 0.5
    assert np.allclose(v, -v[::-1])
    assert 0.0 not in v


def test_traditional_velocity_reversal_conjugates_amplitudes():
    # under (v_c, v_t) -> (-v_c, -v_t) at z0 = 0 every Doppler phase
    # conjugates; the single-atom amplitudes conjugate exactly, and the
    # rotation error is reversal-symmetric once the interaction shift
    # (which keeps its sign) is negligible
    for v_c, v_t in [(0.2, -0.1), (0.35, 0.35)]:
        for label in ("01", "10"):
            plus, _ = simulate_gate_input(label, PARAMS, v_c, v_t, "traditional")
            minus, _ = simulate_gate_input(label, PARAMS, -v_c, -v_t, "traditional")
            assert abs(np.conj(plus) - minus) < 1e-12


def test_traditional_grid_symmetry_without_blockade_shift():
    from dataclasses import replace as dc_replace

    from dualrail.core import InteractionTable

    no_shift = dc_replace(
        CFG,
        interactions=InteractionTable(
            entries={k: 0.0 for k in CFG.interactions.entries},
            separation_um=7.0,
        ),
    )
    params = make_params(config=no_shift)
    for v_c, v_t in [(0.2, -0.1), (0.35, 0.35)]:
        rep_a = gate_report(params, v_c, v_t, "traditional")
        rep_b = gate_report(params, -v_c, -v_t, "traditional")
        assert rep_a.rotation_error == pytest.approx(
            rep_b.rotation_error, abs=1e-9
        )


def test_averaged_error_parallel_matches_serial():
    serial = averaged_rotation_error(PARAMS, 10.0, n_grid=8, jobs=1)
    parallel = averaged_rotation_error(PARAMS, 10.0, n_grid=8, jobs=2)
    assert serial.averaged == pytest.approx(parallel.averaged, rel=1e-12)
    assert np.array_equal(serial.errors, parallel.errors)


def test_one_grid_serves_every_temperature():
    cold = averaged_rotation_error(PARAMS, 10.0, n_grid=6)
    hot = averaged_rotation_error(PARAMS, 200.0, n_grid=6)
    assert np.array_equal(cold.errors, hot.errors)
    assert maxwell_grid_average(
        cold.errors, cold.velocities, 200.0, CFG.species
    ) == hot.averaged


def test_rotation_grid_nonnegative():
    grid = averaged_rotation_error(PARAMS, 10.0, n_grid=6)
    assert np.all(grid.errors >= 0.0)
    assert grid.averaged >= 0.0


def test_fidelity_combines_terms():
    rep = fidelity(PARAMS, 10.0, n_grid=6)
    assert rep.fidelity == pytest.approx(
        1.0 - rep.rotation_error_avg - rep.decay_error, rel=1e-12
    )


def test_report_dict_and_grid_csv(tmp_path):
    rep = gate_report(PARAMS, 0.0, 0.0)
    d = rep.to_dict()
    assert d["method"] == "dual_rail"
    assert set(d["amplitudes"]) == {"a_01", "b_10", "c_11"}
    grid = averaged_rotation_error(PARAMS, 10.0, n_grid=4)
    path = tmp_path / "grid.csv"
    grid_to_csv(grid, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "v_c_mps,v_t_mps,e_ro"
    assert len(lines) == 17
