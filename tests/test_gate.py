import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualrail import engine
from dualrail import gate as gate_module
from dualrail import protocols
from dualrail.core import SimulationParams, get_config, mhz_to_rad_per_us
from dualrail.engine import (
    ComplexState,
    GateStage,
    TwoAtomSpace,
    _levels,
    _stage_hamiltonian,
    pi_time,
    propagate_atom,
    propagate_stages,
)
from dualrail.gate import (
    GateParams,
    averaged_rotation_error,
    decay_error,
    decay_error_analytic,
    fidelity,
    gate_duration,
    gate_report,
    grid_to_csv,
    maxwell_grid_average,
    rotation_error,
    simulate_gate_input,
    velocity_grid,
)
from dualrail.gate import (
    _input_stages,
    _lone_train,
    _simulate_input,
    _trains,
)
from dualrail.hamiltonians import NINE_BASIS, h_dual_rail, h_gate_nine, lab_hamiltonian
from dualrail.propagator import evolve

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
    for n in (1, 2):
        params = make_params(n)
        closed_form = 2.0 * math.pi / (math.sqrt(2.0) * OMEGA) + params.t_wait
        assert gate_duration(params, "traditional") == pytest.approx(
            closed_form, rel=1e-12
        )


def test_duration_unknown_method():
    with pytest.raises(ValueError):
        gate_duration(PARAMS, "bogus")


# --- parameter validation --------------------------------------------------

def test_target_train_must_fit_wait_window():
    # slow target: 4*pi/(sqrt(2)*|omega_t|) > t_wait, whatever its sign
    for omega_t_mhz in (1.5, -1.5):
        with pytest.raises(ValueError, match="wait window"):
            make_params(omega_t=mhz_to_rad_per_us(omega_t_mhz))


@pytest.mark.parametrize("bad", [
    dict(omega=float("nan")), dict(omega_dp=float("inf")),
    dict(omega_if=float("nan")), dict(z0_target_um=float("nan")),
    dict(omega=0.0), dict(omega_dp=0.0), dict(omega_t=0.0),
])
def test_params_reject_non_finite_and_zero_amplitudes(bad):
    with pytest.raises(ValueError):
        make_params(**bad)


def test_missing_interaction_table():
    bare = get_config("cs133_6p12")
    with pytest.raises(ValueError):
        make_params(config=bare).pair_shift("r1", "r1")


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


@pytest.mark.parametrize("method", ["dual_rail", "traditional"])
@pytest.mark.parametrize("n_cycles", [1, 2])
def test_input_10_is_the_control_protocol(monkeypatch, method, n_cycles):
    # the lone control runs the gap protocol, or the traditional restore
    # at sqrt(2)*Omega: the same train on the same engine
    runs = []
    original = protocols.propagate_atom
    monkeypatch.setattr(protocols, "propagate_atom",
                        lambda *a: runs.append(original(*a)) or runs[-1])
    params = make_params(n_cycles, z0_control_um=0.7)
    v = velocity_grid(7)
    if method == "dual_rail":
        protocols.run_gap_protocol(SimulationParams(
            omega=params.omega, omega_dp=params.omega_dp, omega_if=params.omega_if,
            n_gap_cycles=n_cycles, v_mps=v, z0_um=0.7,
        ), CFG.wavevectors)
    else:
        protocols.run_traditional_restore(SimulationParams(
            omega=math.sqrt(2.0) * params.omega, t_wait_us=params.t_wait,
            v_mps=v, z0_um=0.7,
        ), CFG.wavevectors.k_excite)
    (final, t_protocol), = runs
    amp, t_r = _simulate_input("10", params, _trains(params, method), v, 0.0)
    assert np.max(np.abs(amp - final.amplitude("1"))) <= 1e-15
    assert np.array_equal(t_r, t_protocol)


# gate_report residence times and decay error at (v_c, v_t) = (0.17, -0.23)
# m/s.  The lone target's time runs to the end of the gate: its residual
# Rydberg population counts while the control deexcites.
REPORT_TIMES = {
    ("dual_rail", 1): (0.3643909016542351, 1.0602190778208813, 1.060445524063593, 0.0007894077203108988),
    ("dual_rail", 2): (0.36761744507208555, 1.7674095486642607, 1.767367423540871, 0.0012396424451325341),
    ("traditional", 1): (0.17554187693920956, 0.8780499082596774, 0.8872367636351844, 0.0006165274932763886),
    ("traditional", 2): (0.17558175804849574, 1.5816078999005114, 1.5932395097973562, 0.0010643040558279426),
}


@pytest.mark.parametrize("method, n_cycles", sorted(REPORT_TIMES))
def test_report_residence_times_are_pinned(method, n_cycles):
    rep = gate_report(make_params(n_cycles), 0.17, -0.23, method)
    times = rep.rydberg_times_us
    computed = (times["01"], times["10"], times["11"], rep.decay_error)
    assert computed == pytest.approx(REPORT_TIMES[method, n_cycles], rel=1e-12, abs=0.0)


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

def _check_engine_against_adaptive_integrator(method):
    full, stages = _input_stages(PARAMS, _trains(PARAMS, method))
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


def test_frame_engine_matches_adaptive_integrator():
    _check_engine_against_adaptive_integrator("dual_rail")


def test_traditional_engine_matches_adaptive_integrator():
    # its idle wait stage carries only the blockade shift
    _check_engine_against_adaptive_integrator("traditional")


speeds = st.floats(-0.6, 0.6)


@settings(max_examples=25, deadline=None)
@given(
    pairs=st.lists(st.tuples(speeds, speeds), min_size=1, max_size=5),
    z0=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    method=st.sampled_from(["dual_rail", "traditional"]),
    which=st.sampled_from(["full", "control_only", "target_only"]),
)
def test_batched_stages_match_scalar_calls(pairs, z0, method, which):
    v_c, v_t = (np.array(v) for v in zip(*pairs))
    if which == "full":
        space, stages = _input_stages(PARAMS, _trains(PARAMS, method))
        rng = np.random.default_rng(len(pairs))
        psi0 = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        psi0 /= np.linalg.norm(psi0)
        rows = space.single_rydberg_indices()
        run = lambda vc, vt: propagate_stages(psi0, space, stages, vc, vt, *z0, rows)
    else:  # a lone atom runs its own train at its own velocity and coordinate
        atom = 0 if which == "control_only" else 1
        train, _ = _lone_train(("10", "01")[atom], PARAMS, _trains(PARAMS, method))

        def run(vc, vt):
            final, t_r = propagate_atom(train, (vc, vt)[atom], z0[atom])
            return final.amplitudes, t_r
    batched = run(v_c, v_t)
    # a scalar velocity pairs with every entry of the other array; a lone
    # control at a scalar velocity gives one state for all of them
    row = [np.broadcast_to(x, np.shape(y)) for x, y in zip(run(v_c[0], v_t), batched)]
    for i in range(len(pairs)):
        psi, occupation = run(v_c[i], v_t[i])
        assert np.max(np.abs(batched[0][i] - psi)) < 1e-12
        assert abs(batched[1][i] - occupation) < 1e-12
        psi, occupation = run(v_c[0], v_t[i])
        assert np.max(np.abs(row[0][i] - psi)) < 1e-12
        assert abs(row[1][i] - occupation) < 1e-12


def test_wait_stage_block_diagonal():
    # with the control drive off, nothing couples the control-ground
    # block to the shelved block: the piecewise bookkeeping is exact
    full, stages = _input_stages(PARAMS, _trains(PARAMS, "dual_rail"))
    stage_b = stages[1]
    h, _, _ = _stage_hamiltonian(full, stage_b.control, stage_b.target)
    ground_block = [full.index("1", t) for t in ("1", "r1", "r2")]
    others = [i for i in range(full.dim) if i not in ground_block]
    assert np.max(np.abs(h[np.ix_(ground_block, others)])) == 0.0


def test_spaces_differing_in_one_shift_get_their_own_hamiltonian():
    space, stages = _input_stages(PARAMS, _trains(PARAMS, "dual_rail"))
    shifts = dict(space.shifts)
    pair = next(iter(shifts))
    levels = (space.control_levels, space.target_levels)
    # the shifts are content: insertion order does not matter
    assert TwoAtomSpace(*levels, dict(reversed(shifts.items()))) == space
    other = TwoAtomSpace(*levels, {**shifts, pair: shifts[pair] + 1.0})
    drives = (stages[1].control, stages[1].target)
    h, _, _ = _stage_hamiltonian(space, *drives)
    h_other, _, _ = _stage_hamiltonian(other, *drives)
    i = space.index(*pair)
    assert h_other[i, i] == h[i, i] + 1.0
    assert np.count_nonzero(h_other != h) == 1


def test_cached_hamiltonian_is_read_only():
    space, stages = _input_stages(PARAMS, _trains(PARAMS, "dual_rail"))
    for array in _stage_hamiltonian(space, stages[1].control, stages[1].target):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_report_at_new_velocities_builds_no_hamiltonian(monkeypatch):
    gate_report(PARAMS, 0.05, -0.02)
    built = []
    original = engine._build_hamiltonian
    monkeypatch.setattr(engine, "_build_hamiltonian",
                        lambda *args: built.append(args) or original(*args))
    gate_report(PARAMS, -0.13, 0.21)
    assert built == []
    # a new infrared drive is new content
    gate_report(make_params(omega_if=0.9 * OMEGA), -0.13, 0.21)
    assert built


def test_report_builds_its_pulse_trains_once(monkeypatch):
    calls = []
    original = gate_module._trains
    monkeypatch.setattr(gate_module, "_trains",
                        lambda *args: calls.append(args) or original(*args))
    gate_report(PARAMS, 0.1, 0.2)
    assert calls == [(PARAMS, "dual_rail")]


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
    full, stages = _input_stages(params, _trains(params, "dual_rail"))
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

    stage_c = stages[-1]
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


@pytest.mark.parametrize("method", ["dual_rail", "traditional"])
@pytest.mark.parametrize("n_cycles", [1, 2])
def test_batched_grid_matches_pointwise_loop(method, n_cycles):
    params = make_params(n_cycles, z0_control_um=0.7, z0_target_um=-1.1)
    grid = averaged_rotation_error(params, 10.0, method, n_grid=9)
    v = grid.velocities
    a = [simulate_gate_input("01", params, 0.0, v_t, method)[0] for v_t in v]
    expected = np.empty((v.size, v.size))
    for i, v_c in enumerate(v):
        b, _ = simulate_gate_input("10", params, v_c, 0.0, method)
        for j, v_t in enumerate(v):
            c, _ = simulate_gate_input("11", params, v_c, v_t, method)
            expected[i, j] = rotation_error(a[j], b, c)
    assert np.max(np.abs(grid.errors - expected)) < 1e-12
    assert abs(
        grid.averaged - maxwell_grid_average(expected, v, 10.0, CFG.species)
    ) < 1e-12


def test_control_only_stages_share_one_eigendecomposition(monkeypatch):
    matrices = []
    original = np.linalg.eigh

    def counting(h, *args, **kwargs):
        matrices.append(h.reshape(-1, *h.shape[-2:]).shape[0])
        return original(h, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    velocities = velocity_grid(100)
    _simulate_input("11", PARAMS, _trains(PARAMS, "dual_rail"), 0.12, velocities)
    # excite and deexcite drive the control only; the target's two pulses
    # (with the control's infrared shelving) drive both atoms
    assert sorted(matrices) == [1, 1, 100, 100]


@pytest.mark.parametrize("method", ["dual_rail", "traditional"])
@pytest.mark.parametrize("n_cycles", [1, 2])
def test_grid_skips_the_occupation_integral(monkeypatch, method, n_cycles):
    def fail(*args, **kwargs):
        raise AssertionError("occupation integral evaluated")

    monkeypatch.setattr(engine, "_occupation_integral", fail)
    params = make_params(n_cycles)
    grid = averaged_rotation_error(params, 10.0, method, n_grid=4)
    assert np.all(np.isfinite(grid.errors))
    # the decay error reads the residence times, so the report computes them
    with pytest.raises(AssertionError, match="occupation integral"):
        gate_report(params, 0.0, 0.0, method)


@pytest.mark.parametrize("method, n_cycles", [("dual_rail", 1), ("traditional", 2)])
@pytest.mark.parametrize("v_target", [0.13, velocity_grid(7)])
def test_untimed_run_returns_the_timed_state(method, n_cycles, v_target):
    params = make_params(n_cycles)
    full, stages = _input_stages(params, _trains(params, method))
    if method == "traditional":
        assert any(s.control is None and s.target is None for s in stages)
    psi0 = np.zeros(full.dim, dtype=complex)
    psi0[full.index("1", "1")] = 1.0
    run = (psi0, full, stages, -0.21, v_target, 0.7, -1.1)
    timed, t_r = propagate_stages(*run, occupation_rows=full.single_rydberg_indices())
    untimed, occupation = propagate_stages(*run, occupation_rows=())
    assert np.array_equal(untimed, timed)
    assert np.all(np.asarray(t_r) > 0.0)
    assert np.shape(occupation) == np.shape(t_r)
    assert np.all(np.asarray(occupation) == 0.0)


def test_array_end_times_match_separate_runs():
    control, _ = _trains(PARAMS, "dual_rail")
    space = TwoAtomSpace(_levels(control), ("0",))
    drive = control[0].control
    psi0 = np.zeros(space.dim, dtype=complex)
    psi0[space.index("1", "0")] = 1.0
    rows = space.single_rydberg_indices()
    ends = np.array([0.05, 0.2, 0.31])
    psi, t_r = propagate_stages(
        psi0, space, [GateStage(0.0, ends, control=drive)], 0.12, 0.0, 0.7, 0.0, rows
    )
    assert psi.shape == (3, space.dim) and t_r.shape == (3,)
    for k, t1 in enumerate(ends):
        one, t_one = propagate_stages(
            psi0, space, [GateStage(0.0, t1, control=drive)], 0.12, 0.0, 0.7, 0.0, rows
        )
        assert np.array_equal(psi[k], one)
        assert abs(t_r[k] - t_one) < 1e-15


def test_bad_grid_inputs_rejected_before_any_propagation(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("propagated before checking the inputs")

    for module in (engine, gate_module):
        monkeypatch.setattr(module, "propagate_stages", fail)
    with pytest.raises(ValueError, match="temperature"):
        averaged_rotation_error(PARAMS, -5.0)
    with pytest.raises(ValueError, match="at least 2 points"):
        averaged_rotation_error(PARAMS, 10.0, n_grid=1)
    for label in ("00", "11"):
        with pytest.raises(ValueError, match="unknown method"):
            simulate_gate_input(label, PARAMS, method="bogus")
    with pytest.raises(ValueError, match="unknown method"):
        averaged_rotation_error(PARAMS, 10.0, "bogus")
    with pytest.raises(ValueError, match="unknown method"):
        gate_report(PARAMS, method="bogus")
    with pytest.raises(ValueError, match="unknown method"):
        gate_duration(PARAMS, "bogus")


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
