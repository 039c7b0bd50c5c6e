import ast
import cmath
import inspect
import math
import os
import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualrail import engine
from dualrail import gate as gate_module
from dualrail import protocols
from dualrail.core import (
    ConvergenceError, InteractionTable, SimulationParams, continuum_weight_mass, get_config,
    maxwell_rule, mhz_to_rad_per_us,
)
from dualrail.engine import (
    INFRARED,
    OPTICAL_DUAL,
    OPTICAL_SINGLE,
    AtomDrive,
    ComplexState,
    GateStage,
    TwoAtomSpace,
    _build_hamiltonian,
    _levels,
    _sign_free_key,
    _run_program,
    pi_time,
    propagate_stages,
)
from dualrail.gate import (
    GateParams,
    averaged_rotation_error,
    decay_error,
    gate_duration,
    gate_report,
    rotation_error,
    velocity_grid,
)
from dualrail.gate import _plan, _run_input, _trains
from dualrail.hamiltonians import (
    NINE_BASIS, h_dual_rail, h_gate_nine, lab_hamiltonian, nine_level_shifts,
)
from dualrail.propagator import evolve
from oracle import decay_error_analytic

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
NO_BLOCKADE = replace(CFG, interactions=InteractionTable(
    entries={k: 0.0 for k in CFG.interactions.entries}, separation_um=7.0))


INPUTS = ("01", "10", "11")


def input_run(label, params, method="dual_rail"):
    """The (space, stages) run of one gate input, from the gate's plan."""
    return _plan(params, method).runs[INPUTS.index(label)]


def simulate_input(label, params, v_c=0.0, v_t=0.0, method="dual_rail"):
    """Amplitude and residence time of one gate input, run as gate_report
    runs it."""
    return _run_input(input_run(label, params, method), params, v_c, v_t)


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
    # slow target: 4*pi/(sqrt(2)*|omega_t|) > t_wait, whatever its sign; the
    # traditional sequence never reads omega_t, so it runs
    for omega_t_mhz in (1.5, -1.5):
        params = make_params(omega_t=mhz_to_rad_per_us(omega_t_mhz))
        with pytest.raises(ValueError, match="wait window"):
            gate_duration(params, "dual_rail")
        assert gate_duration(params, "traditional") == gate_duration(PARAMS, "traditional")


@pytest.mark.parametrize("method, amplitude", [("dual_rail", "omega_t"), ("traditional", "omega")])
def test_wait_window_edge_is_read_off_the_built_trains(method, amplitude):
    # the target's train may end up to 1e-12 of the window's close time
    # (here 0.88 us) past the control's wait stage, for either method:
    # the dual-rail pi + 3*pi lasts
    # 4*pi/(sqrt(2)|Omega_t|) and the traditional 2*pi pulse, at
    # sqrt(2)*Omega, 2*pi/(sqrt(2)*Omega)
    area = 4.0 * math.pi if method == "dual_rail" else 2.0 * math.pi
    for past in (1e-13, 1e-11):
        params = make_params(**{amplitude: area / (math.sqrt(2.0) * (PARAMS.t_wait + past))})
        control, target = _trains(params, method)
        assert target[-1].t1 - control[1].t1 == pytest.approx(past, rel=1e-2)
        if past < 1e-12:
            assert gate_duration(params, method) == control[-1].t1
            continue
        with pytest.raises(ValueError, match="^target pulse train must fit inside the wait window"):
            gate_duration(params, method)


@pytest.mark.parametrize("method", ["dual_rail", "traditional"])
def test_a_zero_wait_fits_no_target(method):
    # n = 0: the dual-rail control keeps a zero-length infrared stage and
    # the traditional one has no wait stage; either window closes as it
    # opens, also when the pi pulses are far shorter than 1e-12 us, since
    # the slack scales with the window's close
    with pytest.raises(ValueError, match="^target pulse train must fit inside the wait window"):
        gate_duration(make_params(0), method)
    for omega in map(mhz_to_rad_per_us, (1e9, 1e12, 1e15)):
        params = make_params(0, omega=omega, omega_dp=-omega, omega_t=omega, omega_if=omega)
        with pytest.raises(ValueError, match="^target pulse train must fit inside the wait window"):
            gate_duration(params, method)


def test_builders_and_the_plan_derive_no_pulse_length():
    # one rule per pulse: every length in the train builders and the gate's
    # trains and plan is pi_time's or a built stage's, so their bodies hold
    # no pi and no division
    found = [
        (function.__name__, ast.unparse(node))
        for function in (engine.pulse_train, engine.resilient_pair, engine.single_rail_restore,
                         gate_module._trains, gate_module._plan)
        for node in ast.walk(ast.parse(inspect.getsource(function)))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
        or isinstance(node, ast.Attribute) and node.attr == "pi"
        or isinstance(node, ast.Name) and node.id == "pi"
    ]
    assert found == []


@pytest.mark.parametrize("bad", [
    dict(omega=float("nan")), dict(omega_dp=float("inf")),
    dict(omega_if=float("nan")), dict(z0_target_um=float("nan")),
    dict(omega=0.0), dict(omega_dp=0.0), dict(omega_t=0.0),
])
def test_params_reject_non_finite_and_zero_amplitudes(bad):
    with pytest.raises(ValueError):
        make_params(**bad)


@pytest.mark.parametrize("name", ["omega", "omega_dp", "omega_t", "omega_if"])
@pytest.mark.parametrize("zero", [0.0, -0.0, 0])
def test_params_name_each_zero_amplitude(name, zero):
    with pytest.raises(ValueError, match=f"^{name} must be nonzero$"):
        make_params(**{name: zero})
    assert getattr(make_params(**{name: 1e-300}), name) == 1e-300


def test_missing_interaction_table():
    bare = get_config("cs133_6p12")
    with pytest.raises(ValueError):
        make_params(config=bare).pair_shift("r1", "r1")


@pytest.mark.parametrize("n", [1.5, 0.5, -1, -0.5])
def test_params_refuse_a_count_that_is_not_whole_at_construction(n):
    # at n = 1.5 the gate's rotation error reads 0.80, against 2.35e-4 at n = 1
    message = f"^gap cycle count must be a whole number, 0 or more, got {n}$"
    with pytest.raises(ValueError, match=message):
        make_params(n)


@pytest.mark.parametrize("omega_if", [-OMEGA, -1e-300])
def test_params_refuse_a_negative_infrared_amplitude_at_construction(omega_if):
    with pytest.raises(ValueError, match="^infrared Rabi amplitude must be positive$"):
        make_params(omega_if=omega_if)


def test_params_without_a_c6_table_are_refused_at_construction():
    with pytest.raises(ValueError, match="^config 'cs133_6p12' carries no C6 table$"):
        GateParams(OMEGA, -OMEGA, OMEGA, OMEGA, 1, get_config("cs133_6p12"))


@pytest.mark.parametrize("method", ["dual_rail", "traditional"])
def test_a_whole_float_count_builds_the_integer_counts_plan(method):
    # built outside the plan cache, where 2.0 and 2 would share one entry
    whole, integer = (_plan.__wrapped__(make_params(n), method) for n in (2.0, 2))
    assert whole.duration == integer.duration
    for (_, stages_f), (_, stages_i) in zip(whole.runs, integer.runs):
        assert [(s.t0, s.t1) for s in stages_f] == [(s.t0, s.t1) for s in stages_i]


def test_grids_need_a_cycle_count_and_judge_each_one():
    with pytest.raises(ValueError, match="^rotation_error_grids needs at least one cycle count$"):
        gate_module.rotation_error_grids(PARAMS, "dual_rail", (), 4)
    with pytest.raises(ValueError, match="^gap cycle count must be a whole number"):
        gate_module.rotation_error_grids(PARAMS, "dual_rail", (1, 1.5), 4)


def test_traditional_wait_must_hold_target_pulse():
    params = make_params(omega_if=mhz_to_rad_per_us(8.0), omega_t=mhz_to_rad_per_us(8.0))
    with pytest.raises(ValueError):
        gate_report(params, method="traditional")


# --- single inputs -----------------------------------------------------------

def test_input_01_at_rest():
    amp, t_r = simulate_input("01", PARAMS)
    assert abs(amp + 1.0) < 1e-12
    # target holds Rydberg population for half of its 4*pi train
    assert t_r == pytest.approx(2.0 * pi_time(PARAMS.omega_t), rel=1e-9)


def test_input_10_at_rest():
    amp, t_r = simulate_input("10", PARAMS)
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
    amp, t_r = simulate_input("10", params, v, 0.0, method)
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


@pytest.mark.parametrize("method, counts", [
    # (calls, stages, eigh calls, matrices, stages reusing an eigensystem):
    # "01" the target's pulses at +-Omega_t (one eigensystem) and its idle
    # tail, "10" the control's three distinct pulses, "11" the control's
    # excitation, the target's pulses over the shelving wait and the
    # deexcitation; the traditional control's second pi pulse reuses its
    # first, in "10" and in "11"
    ("dual_rail", (3, 10, 3, 7, 2)),
    ("traditional", (3, 9, 3, 4, 2)),
])
def test_scalar_report_runs_three_engine_calls(method, counts):
    with engine.counting() as work:
        gate_report(PARAMS, 0.1, -0.2, method)
    assert (work.calls, work.stages, work.eigh_calls, work.eigh_matrices, work.reused) == counts
    assert work.max_norm_defect < 1e-13
    # a gap run is one call of three stages, each with its own drive
    params = SimulationParams(omega=OMEGA, omega_dp=-mhz_to_rad_per_us(2.0339),
                              omega_if=OMEGA, n_gap_cycles=1, v_mps=0.1, z0_um=0.4)
    with engine.counting() as work:
        protocols.run_gap_protocol(params, CFG.wavevectors)
    assert (work.calls, work.stages, work.eigh_calls, work.eigh_matrices, work.reused) \
        == (1, 3, 1, 3, 0)


@pytest.mark.parametrize("method", ["dual_rail", "traditional"])
def test_scalar_runs_are_the_bits_of_a_batch_of_one(method):
    # a one-vector call runs the batched products without the batch axes
    # and adds its stage terms in stage order: every input's state and
    # residence time are the bits of the same run as a batch of one
    rng = np.random.default_rng(5)
    z0 = 0.8, -1.3
    params = make_params(z0_control_um=z0[0], z0_target_um=z0[1])
    for space, stages in _plan(params, method).runs:
        rows = space.single_rydberg_indices
        for v_c, v_t in rng.normal(0.0, 0.14, (10, 2)).tolist():
            psi, t_r = propagate_stages(space.first_state, space, stages, v_c, v_t, *z0, rows)
            batch, t_batch = propagate_stages(space.first_state, space, stages,
                                              np.array([v_c]), np.array([v_t]), *z0, rows)
            assert psi.tobytes() == batch[0].tobytes()
            assert np.array([t_r]).tobytes() == t_batch.tobytes()


@pytest.mark.parametrize("method", ["dual_rail", "traditional"])
def test_rest_frame_blockade_error_scales_as_the_inverse_shift(method):
    # at rest the blockade leaks c away from a by (Omega/V)^2 to leading
    # order: |c - a| * V stays put as the trap separation shrinks and V
    # grows as 1/L^6 (x8.5, x21.4, x64 for L * 0.7, 0.6, 0.5)
    table = CFG.interactions
    scaled = []
    for factor in (0.7, 0.6, 0.5):
        config = replace(CFG, interactions=InteractionTable(
            dict(table.entries), table.separation_um * factor))
        rep = gate_report(make_params(config=config), 0.0, 0.0, method)
        scaled.append(abs(rep.c - rep.a) / factor ** 6)
    assert scaled[1] == pytest.approx(scaled[0], rel=1e-3)
    assert scaled[2] == pytest.approx(scaled[0], rel=1e-3)
    # the dual rail leaks less than the single rail (measured 3.0079e-2 and 3.734e-2)
    assert scaled[0] == pytest.approx({"dual_rail": 3.0079e-2, "traditional": 3.7346e-2}[method],
                                      rel=1e-3)


def test_rydberg_times_10_and_11_agree():
    rep = gate_report(PARAMS, 0.0, 0.0)
    t10 = rep.rydberg_times_us["10"]
    t11 = rep.rydberg_times_us["11"]
    assert abs(t11 - t10) / t10 < 0.05


# --- decay error --------------------------------------------------------------

def test_decay_error_zero_without_residence():
    assert decay_error(0.0, 0.0, 0.0, 787.0) == 0.0
    assert decay_error(1.0, 2.0, 1.0, 2.0 ** -1000) == 2.0 ** 1000
    for tau_us in (0.0, -0.0, -1e-300, -787.0):
        with pytest.raises(ValueError, match="^lifetime must be positive$"):
            decay_error(1.0, 1.0, 1.0, tau_us)


def test_decay_error_analytic_value():
    assert decay_error_analytic(OMEGA, 787.0) == pytest.approx(7.86e-4, rel=1e-3)


def test_numeric_decay_matches_analytic():
    rep = gate_report(PARAMS, 0.0, 0.0)
    analytic = decay_error_analytic(OMEGA, PARAMS.tau_us)
    assert rep.decay_error == pytest.approx(analytic, rel=0.1)


# --- cross-validation of the stage engine -------------------------------------

def _train_intervals(control, target):
    """The intervals between the switching times of the two atoms' own
    trains, each as a stage with the drive each train has there: the
    oracle's stages, built without the merge of the gate's plan."""
    def drive(train, t):
        return next((s.control for s in train if s.t0 <= t < s.t1), None)

    times = sorted({t for s in control + target for t in (s.t0, s.t1)})
    return [GateStage(t0, t1, drive(control, 0.5 * (t0 + t1)), drive(target, 0.5 * (t0 + t1)))
            for t0, t1 in zip(times, times[1:])]


def _check_engine_against_adaptive_integrator(method):
    trains = _trains(PARAMS, method)
    full, stages = input_run("11", PARAMS, method)
    v_c, v_t, z0c, z0t = 0.13, -0.07, 0.8, -1.3
    psi0 = np.zeros(full.dim, dtype=complex)
    psi0[full.index("1", "1")] = 1.0
    psi_frame, _ = propagate_stages(
        psi0, full, stages, v_c, v_t, z0c, z0t
    )
    labels = tuple(f"{c}|{t}" for c, t in full.labels())
    state = ComplexState(labels, psi0)
    for st_ in _train_intervals(*trains):
        h = lambda t, st_=st_: lab_hamiltonian(full, st_, t, v_c, v_t, z0c, z0t)
        state = evolve(state, h, st_.t0, st_.t1, rtol=1e-12, atol=1e-14)
    assert np.max(np.abs(state.amplitudes - psi_frame)) < 1e-8


def test_frame_engine_matches_adaptive_integrator():
    _check_engine_against_adaptive_integrator("dual_rail")


def test_traditional_engine_matches_adaptive_integrator():
    # its idle wait stage carries only the blockade shift
    _check_engine_against_adaptive_integrator("traditional")


def test_control_shelves_alone_after_a_target_train_that_ends_early():
    # The target's 1+3 pi train ends 1e-4 us before the wait window closes,
    # so the control shelves alone for the rest.  The oracle takes each
    # interval's drives from the two atoms' own trains.  At rest the
    # lab-frame Hamiltonian is constant on each interval, which keeps the
    # stiff blockade shifts cheap.
    t_wait = PARAMS.t_wait
    params = make_params(omega_t=4.0 * math.pi / (math.sqrt(2.0) * (t_wait - 1e-4)),
                         z0_control_um=0.8, z0_target_um=-1.3)
    control, target = _trains(params, "dual_rail")
    assert control[1].t1 - target[-1].t1 == pytest.approx(1e-4, rel=1e-9)
    space, _ = input_run("11", params)
    psi0 = np.zeros(space.dim, dtype=complex)
    psi0[space.index("1", "1")] = 1.0
    state = ComplexState(tuple(f"{c}|{t}" for c, t in space.labels()), psi0)
    for stage in _train_intervals(control, target):
        mid = 0.5 * (stage.t0 + stage.t1)
        h = lab_hamiltonian(space, stage, mid, 0.0, 0.0, 0.8, -1.3)
        state = evolve(state, lambda t, h=h: h, stage.t0, stage.t1)
    c_engine, _ = simulate_input("11", params, 0.0, 0.0)
    assert abs(state.amplitudes[space.index("1", "1")] - c_engine) < 1e-8


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
    # a lone atom runs its own train in its own slot, beside a spectator
    space, stages = input_run({"full": "11", "control_only": "10",
                               "target_only": "01"}[which], PARAMS, method)
    psi0 = space.first_state
    if which == "full":
        rng = np.random.default_rng(len(pairs))
        psi0 = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        psi0 /= np.linalg.norm(psi0)
    rows = space.single_rydberg_indices
    run = lambda vc, vt: propagate_stages(psi0, space, stages, vc, vt, *z0, rows)
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
    full, stages = input_run("11", PARAMS)
    stage_b = stages[1]
    h, *_ = _build_hamiltonian(full, stage_b.control, stage_b.target)
    ground_block = [full.index("1", t) for t in ("1", "r1", "r2")]
    others = [i for i in range(full.dim) if i not in ground_block]
    assert np.max(np.abs(h[np.ix_(ground_block, others)])) == 0.0


def test_spaces_differing_in_one_shift_get_their_own_hamiltonian():
    space, stages = input_run("11", PARAMS)
    shifts = dict(space.shifts)
    pair = next(iter(shifts))
    levels = (space.control_levels, space.target_levels)
    # the shifts are content: insertion order does not matter
    assert TwoAtomSpace(*levels, dict(reversed(shifts.items()))) == space
    other = TwoAtomSpace(*levels, {**shifts, pair: shifts[pair] + 1.0})
    (group,) = _run_program(space, (stages[1],), True).groups
    (group_other,) = _run_program(other, (stages[1],), True).groups
    h, h_other = group.hamiltonians[0], group_other.hamiltonians[0]
    i = space.index(*pair)
    assert h_other[i, i] == h[i, i] + 1.0
    assert np.count_nonzero(h_other != h) == 1


def test_cached_hamiltonian_is_read_only():
    space, stages = input_run("11", PARAMS)
    run = _run_program(space, stages, True)
    (group,), steps = run.groups, run.steps
    assert _run_program(space, stages, True).groups[0] is group  # compiled once
    # the target's deexcitation reuses its excitation's eigensystem, flipped
    assert group.slots.tolist() == [0, 1, 1, 2] and group.sees == (True, True)
    assert steps == ((0, 0, 0), (0, 1, 1), (0, 2, 1), (0, 3, 2))  # (group, position, slot)
    assert group.signs.shape == (4, 1, space.dim)
    assert (group.signs[2] < 0).any() and (group.signs[[0, 1, 3]] == 1.0).all()
    # the initial state is a row of the space's identity, built once
    assert space.first_state.tolist() == [1.0] + [0.0] * (space.dim - 1)
    assert space.identity is space.identity
    assert np.shares_memory(space.first_state, space.identity)
    # each group carries its stages' clock: (t0, t1), durations, -1j * durations
    assert group.times[..., 0].tolist() == [[s.t0, s.t1] for s in stages]
    assert (group.rotation == -1j * group.duration).all()
    for array in (group.hamiltonians, group.frame_c, group.frame_t,
                  group.slots, group.signs, group.times, group.duration, group.rotation,
                  space.first_state, space.identity, space.single_rydberg_indices):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


@pytest.mark.parametrize("method", ["dual_rail", "traditional"])
def test_each_group_reads_the_clock_of_its_own_stages(method):
    # the grid path splits a run into one group per set of driven atoms,
    # and an undriven stage takes an idle step between or after them
    for space, stages in _plan(PARAMS, method).runs:
        run = _run_program(space, stages, False)
        assert [i for i, step in enumerate(run.steps) if step is None] == [
            i for i, idle in enumerate(run.idles) if idle is not None]
        for g, group in enumerate(run.groups):
            assert group.times[..., 0].tolist() == [[stages[i].t0, stages[i].t1]
                                                    for i in group.stages]
            assert group.duration[:, 0].tolist() == [stages[i].duration for i in group.stages]
            assert [run.steps[i][:2] for i in group.stages] == [
                (g, j) for j in range(len(group.stages))]
        for stage, idle in zip(stages, run.idles):
            if idle is not None:
                duration, propagator = idle
                assert duration.tolist() == [stage.duration]
                for array in idle:
                    with pytest.raises(ValueError, match="read-only"):
                        array[0] = 1.0


def test_sampled_end_times_compile_for_their_call_alone():
    drive = AtomDrive(OMEGA, CFG.wavevectors.k_excite, OPTICAL_DUAL)
    train = [GateStage(0.0, np.linspace(0.05, 0.5, 10), control=drive)]
    before = _run_program.cache_info()
    (first, t_first), (second, t_second) = (engine.propagate_atom(train, 0.05, 0.1)
                                            for _ in range(2))
    # an array stage time does not hash: the run compiles for its call alone
    assert _run_program.cache_info() == before
    assert first.amplitudes.shape == (10, 3)
    assert first.amplitudes.tobytes() == second.amplitudes.tobytes()
    assert t_first.tobytes() == t_second.tobytes()


def test_params_rebuilt_from_an_equal_preset_hit_the_plan_cache():
    # the table hashes by content, whatever the order its entries came in
    table = CFG.interactions
    reordered = InteractionTable(dict(reversed(list(table.entries.items()))), table.separation_um)
    assert reordered == table and hash(reordered) == hash(table)
    plan = _plan(PARAMS, "dual_rail")
    hits = _plan.cache_info().hits
    assert _plan(make_params(config=replace(CFG, interactions=reordered)), "dual_rail") is plan
    assert _plan.cache_info().hits == hits + 1


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


RAILS = ("1", "r1", "r2", "r3")
TOPOLOGIES = {"optical_dual": OPTICAL_DUAL, "optical_single": OPTICAL_SINGLE,
              "infrared": INFRARED}


def _atom_signs(couplings):
    """-1 on the levels of RAILS that the couplings drive, +1 elsewhere."""
    driven = {level for _, level, _ in couplings}
    return np.array([-1.0 if level in driven else 1.0 for level in RAILS])


@pytest.mark.parametrize("slot", ["control", "target"])
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_flipped_amplitude_is_a_diagonal_similarity(slot, topology):
    # every pair of Rydberg levels gets its own shift, and the other atom
    # is driven too: neither may break the identity
    shifts = {(a, b): 10.0 * i + j for i, a in enumerate(RAILS[1:])
              for j, b in enumerate(RAILS[1:])}
    space = TwoAtomSpace(RAILS, RAILS, shifts)
    other = AtomDrive(0.7 * OMEGA, 3.1, OPTICAL_DUAL)
    plus, minus = (AtomDrive(amp, 5.3, TOPOLOGIES[topology]) for amp in (OMEGA, -OMEGA))

    def drives(drive):
        return (drive, other) if slot == "control" else (other, drive)

    h_plus, *frames_plus = _build_hamiltonian(space, *drives(plus))
    h_minus, *frames_minus = _build_hamiltonian(space, *drives(minus))
    flip, keep = _atom_signs(TOPOLOGIES[topology]), np.ones(len(RAILS))
    s = np.kron(*((flip, keep) if slot == "control" else (keep, flip)))
    assert np.all(s[:, None] * h_plus * s[None, :] == h_minus)
    for frame_plus, frame_minus in zip(frames_plus, frames_minus):
        assert np.array_equal(frame_plus, frame_minus)
    # the sign-free key is shared, and the sign vectors are those of S
    key_plus, signs_plus = _sign_free_key(space, *drives(plus))
    key_minus, signs_minus = _sign_free_key(space, *drives(minus))
    assert key_plus == key_minus
    assert np.array_equal(signs_plus, np.ones(space.dim))
    assert np.array_equal(signs_minus, s)


def test_drive_that_is_not_two_sided_keeps_its_sign():
    # r1 is driven from "1" and anchors r2: no +-1 similarity flips the sign
    ladder = (("1", "r1", +1), ("r1", "r2", -1))
    space = TwoAtomSpace(RAILS, ("0",))
    key_plus, _ = _sign_free_key(space, AtomDrive(OMEGA, 5.3, ladder), None)
    key_minus, signs = _sign_free_key(space, AtomDrive(-OMEGA, 5.3, ladder), None)
    assert key_plus != key_minus
    assert np.array_equal(signs, np.ones(space.dim))


@pytest.mark.parametrize("v_target", [0.13, velocity_grid(7)])
def test_sign_flipped_stage_reuses_the_eigensystem_exactly(monkeypatch, v_target):
    space, stages = input_run("11", PARAMS)
    excite, deexcite = stages[1:3]  # the target at +Omega_t, then at -Omega_t
    assert deexcite.target.amp == -excite.target.amp
    matrices = []
    original = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda h: matrices.append(h.shape) or original(h))
    psi0 = np.eye(space.dim)[space.index("r1", "1")]
    rows = space.single_rydberg_indices
    run = (space, -0.21, v_target, 0.7, -1.1, rows)
    joined, t_joined = propagate_stages(psi0, run[0], [excite, deexcite], *run[1:])
    assert len(matrices) == 1
    half, t_first = propagate_stages(psi0, run[0], [excite], *run[1:])
    split, t_second = propagate_stages(half, run[0], [deexcite], *run[1:])
    assert len(matrices) == 3  # each separate call diagonalizes on its own
    assert np.max(np.abs(joined - split)) < 1e-14
    assert np.max(np.abs(t_joined - (t_first + t_second))) < 1e-14


def _count_eigh_matrices(monkeypatch):
    matrices = []
    original = np.linalg.eigh

    def counting(h, *args, **kwargs):
        matrices.append(h.reshape(-1, *h.shape[-2:]).shape[0])
        return original(h, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return matrices


@pytest.mark.parametrize("method, n_cycles, budget", [
    ("dual_rail", 1, 135), ("dual_rail", 2, 144), ("traditional", 1, 36),
])
def test_grid_eigendecomposition_budget(monkeypatch, method, n_cycles, budget):
    # 9 x 9 grid, one block of rows: the lone lines' stacks of 9, 9 matrices
    # for a control-only stage and 9 for the traditional target-only 2*pi
    # pulse, 81 for a stage that drives both atoms.  Losing the broadcast
    # velocity axes or the sign-flipped or repeated stage sharing raises it.
    matrices = _count_eigh_matrices(monkeypatch)
    with engine.counting() as work:
        averaged_rotation_error(make_params(n_cycles), 10.0, method, n_grid=9)
    assert sum(matrices) == budget
    # the engine's own record agrees with the wrapper
    assert (work.eigh_calls, work.eigh_matrices) == (len(matrices), budget)
    assert work.max_norm_defect < 1e-12


@pytest.mark.parametrize("method", ["dual_rail", "traditional"])
def test_broadcast_velocity_axes_match_scalar_calls(monkeypatch, method):
    space, stages = input_run("11", PARAMS, method)
    v_c, v_t = np.array([[-0.31], [0.05], [0.44]]), np.array([-0.2, 0.0, 0.17, 0.5])
    z_c, z_t = np.array([[0.8], [-0.3], [1.7]]), np.array([-1.3, 0.0, 0.4, 2.2])
    rows = space.single_rydberg_indices
    matrices = _count_eigh_matrices(monkeypatch)
    psi, occupation = propagate_stages(
        space.first_state, space, stages, v_c, v_t, z_c, z_t, rows)
    assert psi.shape == (3, 4, space.dim) and occupation.shape == (3, 4)
    # each stage diagonalizes over the velocities its own drives see, in
    # one call per group of stages that see the same atoms
    driven = [(s.control is not None, s.target is not None) for s in stages]
    if method == "dual_rail":  # the target's deexcitation reuses its excitation
        assert driven == [(True, False), (True, True), (True, True), (True, False)]
        assert matrices == [3 + 3, 12]
    else:  # the control's second pi pulse reuses its first
        assert driven == [(True, False), (False, True), (False, False), (True, False)]
        assert matrices == [3, 4]
    for i in range(3):
        for j in range(4):
            one, t_one = propagate_stages(space.first_state, space, stages, v_c[i, 0],
                                          v_t[j], z_c[i, 0], z_t[j], rows)
            assert np.max(np.abs(psi[i, j] - one)) < 1e-12
            assert abs(occupation[i, j] - t_one) < 1e-12


def _row_by_row_grid(params, method, n_grid):
    """The grid with one engine call per row: one control velocity against
    every target velocity."""
    v = velocity_grid(n_grid)
    lone = {label: simulate_input(label, params, v, v, method)[0] for label in ("01", "10")}
    space, stages = input_run("11", params, method)
    errors = np.empty((n_grid, n_grid))
    for i, v_c in enumerate(v):
        psi, _ = propagate_stages(space.first_state, space, stages, v_c, v,
                                  params.z0_control_um, params.z0_target_um)
        errors[i] = rotation_error(lone["01"], lone["10"][i], psi[:, 0])
    return errors


@pytest.mark.parametrize("method, n_grid, blocks", [
    ("dual_rail", 16, [12, 4]), ("traditional", 56, [32, 24]),
])
@pytest.mark.parametrize("n_cycles", [1, 2])
def test_row_blocks_that_do_not_divide_the_grid(monkeypatch, method, n_grid, blocks, n_cycles):
    # a block holds as many rows as keep a stack within two 100-point
    # dual-rail rows: 28,800 // (16 * 144) = 12, 28,800 // (56 * 16) = 32
    params = make_params(n_cycles, z0_control_um=0.7, z0_target_um=-1.1)
    expected = _row_by_row_grid(params, method, n_grid)
    rows = []
    original = gate_module.propagate_stages

    def recording(psi, space, stages, v_control, *args, **kwargs):
        rows.append(np.shape(v_control)[:1])
        return original(psi, space, stages, v_control, *args, **kwargs)

    monkeypatch.setattr(gate_module, "propagate_stages", recording)
    errors = averaged_rotation_error(params, 10.0, method, n_grid=n_grid).errors
    # the lone lines first; the blocks run in shares on several threads,
    # so their calls interleave and compare as a multiset
    assert rows[:2] == [(n_grid,)] * 2
    assert Counter(rows[2:]) == Counter((b,) for b in blocks)
    if method == "dual_rail":  # blocks of rows are the row loop's arithmetic
        assert np.array_equal(errors, expected)
    else:
        assert np.max(np.abs(errors - expected) / expected) < 1e-12


def test_a_dual_rail_grid_of_101_points_runs_one_row_per_block(monkeypatch):
    # 28,800 // (101 * 144) = 1: from 101 points on, a dual-rail block is a
    # single row, or its stacks outgrow two 100-point rows
    rows = []
    original = gate_module.propagate_stages
    monkeypatch.setattr(gate_module, "propagate_stages", lambda psi, space, stages, v_c, *args:
                        rows.append(np.shape(v_c)[:1]) or original(psi, space, stages, v_c, *args))
    gate_module.rotation_error_grids(PARAMS, "dual_rail", (1,), n_grid=101)
    assert rows == [(101,)] * 2 + [(1,)] * 101  # the lone lines, then one call per block


@pytest.mark.parametrize("method", ["dual_rail", "traditional"])
def test_cycle_counts_share_their_prefix_exactly(monkeypatch, method):
    params = make_params(1, z0_control_um=0.7, z0_target_um=-1.1)
    single = [averaged_rotation_error(make_params(n, z0_control_um=0.7, z0_target_um=-1.1),
                                      10.0, method, n_grid=16).errors for n in (1, 2)]
    calls = []
    original = gate_module.propagate_stages
    monkeypatch.setattr(gate_module, "propagate_stages", lambda *args: calls.append(
        (len(args[2]), np.ndim(args[3]))) or original(*args))
    both = gate_module.rotation_error_grids(params, method, (1, 2), n_grid=16)
    assert all(np.array_equal(a, b) for a, b in zip(both, single))
    # first the three lone lines (input "01"'s once, input "10"'s per
    # count) on the 1-D velocity line, then per block of rows: the stages
    # up to the end of the target's train once, then the rest of each
    # count's stage list; blocks interleave across threads, so they
    # compare as a multiset
    shared = 3 if method == "dual_rail" else 2
    rest = [len(input_run("11", p, method)[1]) - shared
            for p in (make_params(1), make_params(2))]
    blocks = 2 if method == "dual_rail" else 1
    assert [ndim for _, ndim in calls[:3]] == [1] * 3
    assert Counter(calls[3:]) == Counter([(n, 2) for n in (shared, *rest)] * blocks)


@pytest.mark.parametrize("method", ["dual_rail", "traditional"])
@pytest.mark.parametrize("n_grid", [12, 40, 51])
@pytest.mark.parametrize("workers", [None, 3])
def test_threaded_grid_equals_the_one_worker_grid(monkeypatch, method, n_grid, workers):
    # None: as many workers as the host's usable CPUs (two split 17 blocks
    # 8 + 9); 3: on any host, up to three shares of the 1, 8 or 17 blocks
    # of a dual-rail grid and the 1, 1 or 2 of a traditional one (8 split
    # 2 + 3 + 3)
    params = make_params(1, z0_control_um=0.7, z0_target_um=-1.1)
    with monkeypatch.context() as one:
        one.setattr(gate_module, "_workers", lambda n_items: 1)
        serial = gate_module.rotation_error_grids(params, method, (1, 2), n_grid)
    if workers is not None:
        monkeypatch.setattr(gate_module, "_workers", lambda n_items: min(workers, n_items))
    rows = []  # the control velocities of every block call
    original = gate_module.propagate_stages
    monkeypatch.setattr(gate_module, "propagate_stages", lambda psi, space, stages, v_c, *args:
                        np.ndim(v_c) == 2 and rows.append(np.ravel(v_c))
                        or original(psi, space, stages, v_c, *args))
    threaded = gate_module.rotation_error_grids(params, method, (1, 2), n_grid)
    assert all(np.array_equal(a, b) for a, b in zip(threaded, serial))
    # every grid row runs in some block: no share drops one
    assert np.array_equal(np.unique(np.concatenate(rows)), velocity_grid(n_grid))


@pytest.mark.parametrize("n_items", [1, 2, 5, 7, 51])
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_shares_cover_every_block_once_in_contiguous_runs(monkeypatch, n_items, workers):
    monkeypatch.setattr(gate_module, "_workers", lambda n: min(workers, n))
    shares, lock = [], threading.Lock()

    def work(share):
        with lock:
            shares.append(share)

    gate_module._run_shares(work, range(0, 3 * n_items, 3))
    assert len(shares) == min(workers, n_items)
    assert all(len(share) > 0 and share.step == 3 for share in shares)
    assert sorted(i for share in shares for i in share) == list(range(0, 3 * n_items, 3))


def test_worker_count_is_the_usable_cpus_and_at_most_one_per_block():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert gate_module._workers(1) == 1
    assert gate_module._workers(10 ** 6) == cpus
    assert gate_module._workers(2) == min(2, cpus)


@pytest.mark.parametrize("cpu_count, cpus", [(3, 3), (None, 1)])
def test_worker_count_without_cpu_affinity_is_the_cpu_count(monkeypatch, cpu_count, cpus):
    # platforms without os.sched_getaffinity read os.cpu_count(), which
    # may not know (None): then one worker
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert gate_module._workers(10) == cpus
    assert gate_module._workers(2) == min(2, cpus)
    assert gate_module._workers(1) == 1


def test_helper_blocks_see_the_callers_error_state(monkeypatch):
    # NumPy keeps its error state in a context variable, which a plain
    # thread starts without: it would see the default "warn"
    monkeypatch.setattr(gate_module, "_workers", lambda n_items: min(2, n_items))
    seen = []
    original = gate_module.propagate_stages

    def recording(*args):
        seen.append((threading.get_ident(), np.geterr()["invalid"]))
        return original(*args)

    monkeypatch.setattr(gate_module, "propagate_stages", recording)
    with np.errstate(invalid="raise"):
        gate_module.rotation_error_grids(PARAMS, "dual_rail", (1,), n_grid=16)
    assert {ident for ident, _ in seen} - {threading.get_ident()}  # a helper ran
    assert {mode for _, mode in seen} == {"raise"}


def test_a_helper_failure_reaches_the_caller_and_no_thread_outlives_it(monkeypatch):
    monkeypatch.setattr(gate_module, "_workers", lambda n_items: min(3, n_items))
    caller = threading.get_ident()
    original = gate_module.propagate_stages

    def failing(*args):
        if threading.get_ident() != caller:
            raise FloatingPointError("a helper's block failed")
        return original(*args)

    monkeypatch.setattr(gate_module, "propagate_stages", failing)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="a helper's block failed"):
        gate_module.rotation_error_grids(PARAMS, "dual_rail", (1,), n_grid=40)
    assert threading.active_count() == before


def test_report_builds_its_pulse_trains_once(monkeypatch):
    # one plan per parameter set: three reports at different velocities,
    # with the duration, build the trains once between them
    calls = []
    original = gate_module._trains
    monkeypatch.setattr(gate_module, "_trains",
                        lambda *args: calls.append(args) or original(*args))
    gate_module._plan.cache_clear()
    for v_c, v_t in ((0.1, 0.2), (-0.3, 0.05), (0.0, -0.17)):
        gate_report(PARAMS, v_c, v_t)
    gate_duration(PARAMS)
    assert calls == [(PARAMS, "dual_rail")]


@pytest.mark.parametrize("n", [1, 2])
def test_the_gate_control_runs_the_protocols_own_train(monkeypatch, n):
    # the gate is its atoms' protocols by identity: at matching fields the
    # gap protocol and the traditional restore run the very train that the
    # gate's control holds, and input "10" of its plan runs it as it is
    trains = []
    monkeypatch.setattr(protocols, "propagate_atom", lambda train, *args:
                        trains.append(train) or engine.propagate_atom(train, *args))
    params = make_params(n)
    protocols.run_gap_protocol(SimulationParams(
        omega=params.omega, omega_dp=params.omega_dp, omega_if=params.omega_if,
        n_gap_cycles=n, v_mps=0.1), CFG.wavevectors)
    protocols.run_traditional_restore(SimulationParams(
        omega=math.sqrt(2.0) * params.omega, t_wait_us=params.t_wait), CFG.wavevectors.k_excite)
    for train, method in zip(trains, ("dual_rail", "traditional")):
        control, _ = _trains(params, method)
        assert train is control
        assert _plan(params, method).runs[1][1] is control


@pytest.mark.parametrize("method", ["dual_rail", "traditional"])
def test_plan_holds_tuples_and_read_only_arrays(method):
    plan = gate_module._plan(PARAMS, method)
    assert gate_module._plan(make_params(), method) is plan  # keyed by content
    # inputs "01", "10" and "11": each atom in its own slot, beside a spectator
    (target, _), (control, _), (pair, _) = plan.runs
    assert target.control_levels == ("0",) and target.target_levels == pair.target_levels
    assert control.control_levels == pair.control_levels and control.target_levels == ("0",)
    for space, stages in plan.runs:
        assert isinstance(stages, tuple)
        for array in (space.first_state, space.single_rydberg_indices, space.shift_diagonal):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1
    assert plan.duration == gate_duration(PARAMS, method)


@pytest.mark.parametrize("method", ["dual_rail", "traditional"])
def test_report_equals_the_unplanned_inputs_bit_for_bit(method):
    rng = np.random.default_rng(22)
    params = make_params(2, z0_control_um=0.7, z0_target_um=-1.1)
    fresh = _plan.__wrapped__(params, method)
    assert fresh is not _plan(params, method)
    for v_c, v_t in rng.normal(0.0, 0.15, (5, 2)).tolist():
        report = gate_report(params, v_c, v_t, method)
        for run, label, amp in zip(fresh.runs, INPUTS, (report.a, report.b, report.c)):
            expected, t_r = _run_input(run, params, v_c, v_t)
            assert (amp.real, amp.imag) == (expected.real, expected.imag)
            assert report.rydberg_times_us[label] == t_r


def test_piecewise_shelved_evolution_matches_engine():
    # stage-by-stage reassembly through the nine-level Hamiltonian
    params = PARAMS
    v_c, v_t = 0.11, -0.04
    k = CFG.wavevectors.k_excite
    k_w = CFG.wavevectors.k_wait
    t_pi_c = pi_time(params.omega)
    t_pi_t = pi_time(params.omega_t)
    shifts = nine_level_shifts(params)

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
    full, stages = input_run("11", params)
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

    c_engine, _ = simulate_input("11", params, v_c, v_t)
    assert abs(c_piecewise - c_engine) < 1e-8


# --- grids and averages ---------------------------------------------------------

def test_nine_level_drives_off_is_pure_phase_accumulation():
    # with both drives off the nine-level Hamiltonian is diagonal and
    # commutes with itself at all times: evolution is exactly e^{-i V t}
    shifts = nine_level_shifts(PARAMS)
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


def test_velocity_grid_takes_two_points_and_refuses_fewer():
    assert velocity_grid(2).tolist() == [-0.5, 0.5]
    assert velocity_grid(3).tolist() == [-0.5, 0.0, 0.5]
    for n_points in (1, 0, -3):
        with pytest.raises(ValueError, match=f"at least 2 points, got {n_points}$"):
            velocity_grid(n_points)


def test_traditional_velocity_reversal_conjugates_amplitudes():
    # under (v_c, v_t) -> (-v_c, -v_t) at z0 = 0 every Doppler phase
    # conjugates; the single-atom amplitudes conjugate exactly, and the
    # rotation error is reversal-symmetric once the interaction shift
    # (which keeps its sign) is negligible
    for v_c, v_t in [(0.2, -0.1), (0.35, 0.35)]:
        for label in ("01", "10"):
            plus, _ = simulate_input(label, PARAMS, v_c, v_t, "traditional")
            minus, _ = simulate_input(label, PARAMS, -v_c, -v_t, "traditional")
            assert abs(np.conj(plus) - minus) < 1e-12


def test_traditional_grid_symmetry_without_blockade_shift():
    params = make_params(config=NO_BLOCKADE)
    for v_c, v_t in [(0.2, -0.1), (0.35, 0.35)]:
        rep_a = gate_report(params, v_c, v_t, "traditional")
        rep_b = gate_report(params, -v_c, -v_t, "traditional")
        assert rep_a.rotation_error == pytest.approx(
            rep_b.rotation_error, abs=1e-9
        )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    method=st.sampled_from(["dual_rail", "traditional"]),
    n_cycles=st.sampled_from([1, 2]),
    v=st.tuples(speeds, speeds),
    z0=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
)
def test_gate_without_blockade_is_the_product_of_its_lone_atoms(method, n_cycles, v, z0):
    # With every C6 entry 0 the atoms never interact: U = U_c x U_t, so
    # input "11" is the product of inputs "01" and "10".  This checks the
    # 12 x 12 assembly and each atom's slot without an ODE.
    coordinates = dict(z0_control_um=z0[0], z0_target_um=z0[1])
    free = gate_report(make_params(n_cycles, config=NO_BLOCKADE, **coordinates), *v, method)
    assert abs(free.c - free.a * free.b) < 1e-12
    # the real table blocks the double excitation: the check is not vacuous
    real = gate_report(make_params(n_cycles, **coordinates), *v, method)
    assert abs(real.c - real.a * real.b) > 0.1


@pytest.mark.parametrize("method", ["dual_rail", "traditional"])
@pytest.mark.parametrize("n_cycles", [1, 2])
def test_batched_grid_matches_pointwise_loop(method, n_cycles):
    params = make_params(n_cycles, z0_control_um=0.7, z0_target_um=-1.1)
    grid = averaged_rotation_error(params, 10.0, method, n_grid=9)
    v = grid.velocities
    a = [simulate_input("01", params, 0.0, v_t, method)[0] for v_t in v]
    expected = np.empty((v.size, v.size))
    for i, v_c in enumerate(v):
        b, _ = simulate_input("10", params, v_c, 0.0, method)
        for j, v_t in enumerate(v):
            c, _ = simulate_input("11", params, v_c, v_t, method)
            expected[i, j] = rotation_error(a[j], b, c)
    assert np.max(np.abs(grid.errors - expected)) < 1e-12
    assert abs(
        grid.averaged - maxwell_rule(v, 10.0, CFG.species).mean(expected)
    ) < 1e-12


def test_control_only_stages_share_one_eigendecomposition(monkeypatch):
    matrices = _count_eigh_matrices(monkeypatch)
    velocities = velocity_grid(100)
    simulate_input("11", PARAMS, 0.12, velocities)
    # excite and deexcite drive the control only, one matrix each in one
    # call; the target's two pulses (with the control's infrared shelving)
    # drive both atoms, and the second, at -Omega_t, reuses the first's
    # eigensystem
    assert matrices == [1 + 1, 100]


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


@pytest.mark.parametrize("method", ["dual_rail", "traditional"])
def test_occupation_integral_runs_once_per_engine_call(monkeypatch, method):
    # every driven stage's integral is one stacked call per engine call
    # that asks for rows: one per gate input, one per protocol run
    calls, runs = [], []
    original = engine._occupation_integral
    monkeypatch.setattr(engine, "_occupation_integral",
                        lambda *args: calls.append(args[0].shape[0]) or original(*args))
    original_run = engine.propagate_stages
    monkeypatch.setattr(gate_module, "propagate_stages",
                        lambda *args: runs.append(len(args[2])) or original_run(*args))
    gate_report(PARAMS, 0.1, -0.2, method)
    assert len(calls) == 3
    # each call stacks its driven stages: the lone target's idle stage and
    # the traditional control's wait drive nothing
    plan = gate_module._plan(PARAMS, method)
    driven = [sum(s.control is not None or s.target is not None for s in stages)
              for _, stages in plan.runs]
    assert calls == driven and runs == [len(stages) for _, stages in plan.runs]
    calls.clear()
    protocols.run_gap_protocol(SimulationParams(
        omega=OMEGA, omega_dp=PARAMS.omega_dp, omega_if=OMEGA, v_mps=0.1, z0_um=0.3,
    ), CFG.wavevectors)
    assert calls == [3]


@pytest.mark.parametrize("method, n_cycles", [("dual_rail", 1), ("traditional", 2)])
@pytest.mark.parametrize("v_target", [0.13, velocity_grid(7)])
def test_untimed_run_returns_the_timed_state(method, n_cycles, v_target):
    params = make_params(n_cycles)
    full, stages = input_run("11", params, method)
    if method == "traditional":
        assert any(s.control is None and s.target is None for s in stages)
    psi0 = np.zeros(full.dim, dtype=complex)
    psi0[full.index("1", "1")] = 1.0
    run = (psi0, full, stages, -0.21, v_target, 0.7, -1.1)
    timed, t_r = propagate_stages(*run, occupation_rows=full.single_rydberg_indices)
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
    rows = space.single_rydberg_indices
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
    assert maxwell_rule(
        cold.velocities, 200.0, CFG.species
    ).mean(cold.errors) == hot.averaged


@pytest.mark.parametrize("n_grid, temp, mass", [(4, 10.0, 4.26e-6), (100, 200.0, 0.9997)])
def test_grid_average_carries_its_weight_mass(n_grid, temp, mass):
    grid = averaged_rotation_error(PARAMS, temp, n_grid=n_grid)
    assert grid.weight_mass == continuum_weight_mass(velocity_grid(n_grid), temp, CFG.species)
    assert grid.weight_mass == pytest.approx(mass, rel=1e-3)


def test_weightless_temperature_raises_before_the_grid(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("computed the grid before weighing it")

    monkeypatch.setattr(gate_module, "rotation_error_grids", fail)
    with pytest.raises(ConvergenceError, match="sum to 0 on the 4-point grid"):
        averaged_rotation_error(PARAMS, 1e-30, n_grid=4)


def test_rotation_grid_nonnegative():
    grid = averaged_rotation_error(PARAMS, 10.0, n_grid=6)
    assert np.all(grid.errors >= 0.0)
    assert grid.averaged >= 0.0
