import math
import pickle
import threading
import time

import numpy as np
import pytest

from dualrail import engine
from dualrail.core import mhz_to_rad_per_us
from dualrail.engine import (
    DUAL_RAIL_BASIS,
    INFRARED,
    OPTICAL_DUAL,
    OPTICAL_SINGLE,
    SINGLE_RAIL_BASIS,
    AtomDrive,
    ComplexState,
    GateStage,
    _atom_space,
    _levels,
    _occupation_integral,
    counting,
    pi_time,
    propagate_atom,
    propagate_stages,
    pulse_train,
    resilient_pair,
    single_rail_restore,
)
from dualrail.hamiltonians import (
    h_dual_rail,
    h_four_field,
    h_single_rail,
)
from dualrail.propagator import (
    evolve,
    evolve_oracle,
)

K_REF = 5.352287460140241
OMEGA = mhz_to_rad_per_us(2.0)
GROUND = ComplexState.from_label(DUAL_RAIL_BASIS, "1")


def dual_rail_at(omega, v, z0=0.0):
    return lambda t: h_dual_rail(t, omega, K_REF, z0, v)


def test_state_helpers():
    s = ComplexState.from_label(DUAL_RAIL_BASIS, "r1")
    assert s.population("r1") == 1.0
    assert s.amplitude("1") == 0.0
    assert s.norm == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ComplexState(DUAL_RAIL_BASIS, np.zeros(2, dtype=complex))


def test_state_helpers_over_a_batch():
    # one state per row, in basis order (r2, r1, 1)
    amps = np.array([[0.8j, 0.0, 0.6], [-1.0, 0.0, 0.0]])
    s = ComplexState(DUAL_RAIL_BASIS, amps)
    assert np.allclose(s.population("1"), [0.36, 0.0])
    assert np.array_equal(s.amplitude("r2"), amps[:, 0])
    assert np.allclose(s.phase("r2"), [0.5 * math.pi, math.pi])
    assert np.allclose(s.norm, [1.0, 1.0])
    with pytest.raises(ValueError):
        ComplexState(DUAL_RAIL_BASIS, np.zeros((2, 2), dtype=complex))


def test_pi_pulse_empties_ground_state():
    out = evolve(GROUND, dual_rail_at(OMEGA, 0.0), 0.0, pi_time(OMEGA))
    assert out.population("1") < 1e-10


def test_zero_drive_is_identity():
    out = evolve(GROUND, dual_rail_at(0.0, 0.1), 0.0, 1.0)
    assert abs(out.amplitude("1") - 1.0) < 1e-12


def test_backwards_interval_rejected():
    with pytest.raises(ValueError):
        evolve(GROUND, dual_rail_at(OMEGA, 0.0), 1.0, 0.0)


def test_single_rail_closed_form():
    # constant phase at v = 0: c_1 = cos(Omega t / 2),
    # c_r1 = -i e^{i k z0} sin(Omega t / 2)
    z0 = 0.7
    s0 = ComplexState.from_label(SINGLE_RAIL_BASIS, "1")
    h = lambda t: h_single_rail(t, OMEGA, K_REF, z0, 0.0)
    for t in (0.05, 0.2, 0.37):
        out = evolve(s0, h, 0.0, t)
        c1 = math.cos(OMEGA * t / 2.0)
        cr = -1j * np.exp(1j * K_REF * z0) * math.sin(OMEGA * t / 2.0)
        assert abs(out.amplitude("1") - c1) < 1e-10
        assert abs(out.amplitude("r1") - cr) < 1e-10


def test_oracle_exact_for_commuting_hamiltonian():
    diag = np.diag([0.3, -1.2, 0.9]).astype(complex)
    h = lambda t: diag
    psi0 = ComplexState(DUAL_RAIL_BASIS, np.ones(3, dtype=complex) / math.sqrt(3.0))
    for n in (1, 7):
        out = evolve_oracle(psi0, h, 0.0, 2.0, n)
        expected = np.exp(-1j * np.diag(diag) * 2.0) * psi0.amplitudes
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-14


def test_oracle_matches_adaptive_stepper():
    # transition-chain drive at Omega/2pi = 0.5 MHz, v = 0.031 m/s
    om = mhz_to_rad_per_us(0.5)
    h = lambda t: h_four_field(t, om, K_REF, 0.0, 0.031)
    ref = evolve(GROUND, h, 0.0, 2.0)
    orc = evolve_oracle(GROUND, h, 0.0, 2.0, 100_000)
    assert np.max(np.abs(ref.amplitudes - orc.amplitudes)) < 1e-8


def test_oracle_agreement_randomized():
    rng = np.random.default_rng(7)
    for _ in range(5):
        om = mhz_to_rad_per_us(rng.uniform(0.5, 5.0))
        v = rng.uniform(-0.5, 0.5)
        z0 = rng.uniform(-10.0, 10.0)
        h = lambda t: h_dual_rail(t, om, K_REF, z0, v)
        t1 = rng.uniform(0.2, 1.0)
        ref = evolve(GROUND, h, 0.0, t1)
        orc = evolve_oracle(GROUND, h, 0.0, t1, 40_000)
        assert np.max(np.abs(ref.amplitudes - orc.amplitudes)) < 1e-8


def test_norm_drift_below_tolerance():
    out = evolve(GROUND, dual_rail_at(OMEGA, 0.05), 0.0, 2.0)
    assert abs(out.norm - 1.0) < 2e-10  # < 1e-10 per us over 2 us


def test_determinism_bit_identical():
    a = evolve(GROUND, dual_rail_at(OMEGA, 0.031), 0.0, 1.3)
    b = evolve(GROUND, dual_rail_at(OMEGA, 0.031), 0.0, 1.3)
    assert np.array_equal(a.amplitudes, b.amplitudes)


def test_time_reversal():
    # phi(t) = conj(psi(T - t)) solves the equation with conj(H(T - t))
    h = dual_rail_at(OMEGA, 0.0, z0=1.1)
    T = 0.9
    fwd = evolve(GROUND, h, 0.0, T)
    h_rev = lambda t: np.conj(h(T - t))
    back = evolve(
        ComplexState(DUAL_RAIL_BASIS, np.conj(fwd.amplitudes)), h_rev, 0.0, T
    )
    assert np.max(np.abs(np.conj(back.amplitudes) - GROUND.amplitudes)) < 1e-8


def test_four_field_and_dual_rail_ground_trajectories_agree():
    # the cos/sin drive at Omega equals the two-rail drive at sqrt(2)*Omega
    # in the rotated Rydberg basis; the ground amplitude is basis-invariant
    om = mhz_to_rad_per_us(0.5)
    hf = lambda t: h_four_field(t, om, K_REF, 0.4, 0.031)
    hd = lambda t: h_dual_rail(t, math.sqrt(2.0) * om, K_REF, 0.4, 0.031)
    for t1 in (0.3, 0.5, 1.2, 2.0):
        af = evolve(GROUND, hf, 0.0, t1).amplitude("1")
        ad = evolve(GROUND, hd, 0.0, t1).amplitude("1")
        assert abs(af - ad) < 1e-9


def _optical(amp, t0, t1):
    return GateStage(t0, t1, control=AtomDrive(amp, K_REF, OPTICAL_DUAL))


def _run(stages, v=0.0, z0=0.0):
    return propagate_atom(stages, v, z0)


def test_sequence_two_pi_pulses_give_minus_one():
    t_pi = pi_time(OMEGA)
    final, _ = _run([_optical(OMEGA, 0.0, t_pi), _optical(OMEGA, t_pi, 2.0 * t_pi)])
    assert abs(final.amplitude("1") + 1.0) < 1e-10
    assert abs(final.phase("1")) == pytest.approx(math.pi, abs=1e-10)


def test_sequence_stage_split_is_continuous():
    # splitting a stage anywhere must not reset the drive phase
    whole, t_whole = _run([_optical(OMEGA, 0.0, 0.4)], v=0.08, z0=2.3)
    split, t_split = _run(
        [_optical(OMEGA, 0.0, 0.17), _optical(OMEGA, 0.17, 0.4)], v=0.08, z0=2.3
    )
    assert np.max(np.abs(whole.amplitudes - split.amplitudes)) < 1e-10
    assert t_split == pytest.approx(t_whole, abs=1e-12)


def test_rydberg_time_analytic_pi_pulse():
    # from the ground state, total Rydberg population is sin^2(Omega t / sqrt 2);
    # its integral over the pi time is exactly half the duration
    t_pi = pi_time(OMEGA)
    _, t_r = _run([_optical(OMEGA, 0.0, t_pi)])
    assert t_r == pytest.approx(t_pi / 2.0, rel=1e-12)


def test_rydberg_time_in_range_and_samples_monotone():
    t_pi = pi_time(OMEGA)
    total = 4.0 * t_pi
    _, t_r = _run(
        [_optical(OMEGA, 0.0, t_pi), _optical(OMEGA, t_pi, total)], v=0.05
    )
    assert 0.0 <= t_r <= total
    # the Rydberg time grows monotonically with the sampled end time
    times = [propagate_atom([_optical(OMEGA, 0.0, t)], 0.05, 0.0)[1]
             for t in np.linspace(0.0, total, 9)]
    assert times[0] == 0.0
    assert np.all(np.diff(times) > 0)


def test_sequence_norm_preserved():
    t_pi = pi_time(OMEGA)
    final, _ = _run(
        [_optical(OMEGA, 0.0, t_pi), _optical(-OMEGA, t_pi, 4.0 * t_pi)], v=0.1
    )
    assert abs(final.norm - 1.0) < 1e-12


@pytest.mark.parametrize("topologies, levels", [
    ((OPTICAL_DUAL,), ("1", "r1", "r2")),
    ((OPTICAL_SINGLE,), ("1", "r1")),
    ((OPTICAL_DUAL, INFRARED), ("1", "r1", "r2", "r3")),
    ((INFRARED,), ("1", "r3", "r1", "r2")),
])
def test_atom_levels_are_read_from_its_drives(topologies, levels):
    # ground "1" first, then every level the drives couple, in order of first
    # appearance; an undriven stage adds none
    train = pulse_train(0.0, *((0.1, AtomDrive(OMEGA, 5.53, t)) for t in topologies), (0.05, None))
    final, _ = propagate_atom(train, 0.05, 0.3)
    assert final.basis == _levels(train) == levels
    if topologies == (INFRARED,):  # a drive that misses the ground leaves the atom there
        assert final.population("1") == 1.0


def test_train_builders_return_one_shared_tuple():
    # a train is an immutable value; the two cached builders hand every
    # caller with equal arguments the same object, a wait drive keying by
    # content, and unequal arguments a train of their own
    builds = [
        lambda: resilient_pair(OMEGA, -1.01 * OMEGA, K_REF),
        lambda: resilient_pair(OMEGA, -1.01 * OMEGA, K_REF, (0.7, OMEGA, 5.53), t0=0.2),
        lambda: single_rail_restore(OMEGA, K_REF, 0.3),
        lambda: single_rail_restore(OMEGA, K_REF, 0.0),
        lambda: pulse_train(0.1, (0.2, AtomDrive(OMEGA, K_REF, OPTICAL_DUAL)), (0.05, None)),
    ]
    trains = [build() for build in builds]
    for build, train in zip(builds, trains):
        assert isinstance(train, tuple) and all(isinstance(s, GateStage) for s in train)
        assert build() == train
    assert all(build() is train for build, train in zip(builds[:4], trains))
    assert len({id(train) for train in trains}) == len(trains)
    assert resilient_pair(OMEGA, OMEGA, K_REF) is not resilient_pair(OMEGA, -OMEGA, K_REF)
    # a positive wait is an undriven stage between the pi pulses; a zero one adds none
    assert [s.control is None for s in trains[2]] == [False, True, False]
    assert len(trains[3]) == 2


def test_resilient_pair_keys_its_wait_by_numbers():
    # equal floats give the one cached tuple; a positive wait is one
    # infrared middle stage, a zero wait a zero-length one, and no wait none
    wait = (0.7, OMEGA, 5.53)
    train = resilient_pair(OMEGA, -OMEGA, K_REF, wait)
    assert resilient_pair(OMEGA, -OMEGA, K_REF, (0.7, OMEGA, 5.53)) is train
    assert train[1] == GateStage(train[0].t1, train[0].t1 + 0.7, AtomDrive(OMEGA, 5.53, INFRARED))
    zero = resilient_pair(OMEGA, -OMEGA, K_REF, (0.0, OMEGA, 5.53))
    assert zero[1] == GateStage(zero[0].t1, zero[0].t1, AtomDrive(OMEGA, 5.53, INFRARED))
    assert [s.control.couplings for s in train] == [OPTICAL_DUAL, INFRARED, OPTICAL_DUAL]
    assert len(resilient_pair(OMEGA, -OMEGA, K_REF)) == 2


def test_single_rail_pi_length_is_pi_time_on_one_rail():
    # the single-rail pi pulse lasts pi/|Omega|, pi_time's on one rail, bit
    # for bit, and a zero or non-finite amplitude has none
    for amp in (OMEGA, -OMEGA):
        assert single_rail_restore(amp, K_REF, 0.3)[0].t1 == pi_time(amp, rails=1) == math.pi / OMEGA
    for amp, message in ((0.0, "zero Rabi amplitude has no pulse length"),
                         (math.nan, "must be finite")):
        with pytest.raises(ValueError, match=message):
            single_rail_restore(amp, K_REF, 0.3)


def test_occupation_integral_resolves_a_gap_of_one_radian_per_duration():
    # gap * duration = 1: the closed form, not the degenerate one, applies,
    # even though the gap (5e-7 rad/us) is far below 1e-6
    gap, duration = 5e-7, 2e6
    eigenvalues = np.array([0.0, gap])
    vectors = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    coeffs = vectors.T @ np.array([1.0, 0.0])
    rows = np.array([0])
    got = _occupation_integral(vectors, coeffs, eigenvalues, duration, rows)
    t = np.linspace(0.0, duration, 400_001)
    amps = (vectors[0] * coeffs) @ np.exp(-1j * np.outer(eigenvalues, t))
    want = np.trapezoid(abs(amps) ** 2, t)
    assert got == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("v, sampled", [
    (0.13, False), (np.linspace(-0.3, 0.3, 7), False), (0.13, True),
])
def test_one_call_residence_time_is_the_sum_of_a_split_calls(v, sampled):
    # a gap run whose last stage starts a call of its own: the first call's
    # time plus the second's is the one call's, bit for bit, as one call
    # adds its stages' terms in stage order (the 3*pi stage reuses no
    # eigensystem, so the split changes no arithmetic)
    train = pulse_train(0.0, (pi_time(OMEGA), AtomDrive(OMEGA, K_REF, OPTICAL_DUAL)),
                        (0.7, AtomDrive(OMEGA, 5.53, INFRARED)), (0.05, None),
                        (3.0 * pi_time(-1.01 * OMEGA), AtomDrive(-1.01 * OMEGA, K_REF, OPTICAL_DUAL)))
    *head, last = train
    if sampled:  # the last stage sampled at three end times
        last = GateStage(last.t0, last.t0 + np.array([0.1, 0.2, last.duration]), last.control)
        train = [*head, last]
    space = _atom_space(_levels(train))
    rows = space.single_rydberg_indices
    run = (v, 0.0, 0.4, 0.0, rows)
    psi, t_one = propagate_stages(space.first_state, space, train, *run)
    mid, t_head = propagate_stages(space.first_state, space, head, *run)
    psi_split, t_last = propagate_stages(mid, space, [last], *run)
    assert np.array_equal(psi_split, psi)
    assert np.array_equal(t_head + t_last, t_one)
    assert np.shape(t_one) == np.broadcast_shapes(np.shape(v), np.shape(last.t1))


# --- the one-vector call ---------------------------------------------------------

GAP_TRAIN = resilient_pair(OMEGA, -1.01 * OMEGA, K_REF, (0.7, OMEGA, 5.53))
GAP_SPACE = _atom_space(_levels(GAP_TRAIN))
# a caller's complex state with negative zeros, which the returned state
# never carries: a batched call adds its state to complex zeros
SIGNED_ZEROS = np.array([1.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)])


@pytest.mark.parametrize("stages", [(), (GateStage(0.0, 0.3),), (GateStage(0.0, 0.0),),
                                    GAP_TRAIN, GAP_TRAIN[1:]],
                         ids=["empty", "undriven", "zero-length", "gap", "wait-restore"])
@pytest.mark.parametrize("with_rows", [False, True], ids=["no-rows", "rows"])
@pytest.mark.parametrize("psi0", [GAP_SPACE.first_state, SIGNED_ZEROS],
                         ids=["first-state", "complex"])
def test_scalar_call_returns_a_new_state_and_a_python_float(stages, with_rows, psi0):
    rows = GAP_SPACE.single_rydberg_indices if with_rows else ()
    for v, z0 in ((0.13, 0.4), (-0.21, -1.7), (0.0, 0.0)):
        psi, t_r = propagate_stages(psi0, GAP_SPACE, stages, v, 0.0, z0, 0.0, rows)
        assert psi is not psi0 and not np.shares_memory(psi, psi0)
        assert psi.dtype == complex and psi.shape == (GAP_SPACE.dim,) and psi.flags.writeable
        assert type(t_r) is float
        # the bits of the same run as a batch of one, signed zeros included
        batched, t_batched = propagate_stages(psi0, GAP_SPACE, stages, np.array([v]), 0.0,
                                              z0, 0.0, rows)
        assert psi.tobytes() == batched[0].tobytes()
        assert np.array([t_r]).tobytes() == t_batched.tobytes()
        if not stages:  # the caller's values, as a new array without negative zeros
            assert psi.tolist() == list(psi0)
            assert not np.signbit(psi.real).any() and not np.signbit(psi.imag).any()


def test_undriven_run_at_batched_velocities_takes_the_batch():
    # an undriven stage list never reads a velocity, but the state and the
    # residence time still broadcast to the velocities' batch
    rows = GAP_SPACE.single_rydberg_indices
    v = np.array([[-0.2], [0.1]])
    for stages in ((), (GateStage(0.0, 0.3),)):
        psi, t_r = propagate_stages(GAP_SPACE.first_state, GAP_SPACE, stages, v,
                                    0.0, np.array([0.0, 0.4, 1.1]), 0.0, rows)
        assert psi.shape == (2, 3, GAP_SPACE.dim) and psi.flags.writeable
        assert t_r.shape == (2, 3) and not t_r.any()
        assert (psi == GAP_SPACE.first_state).all()


def test_stage_products_take_complex_eigenvectors(monkeypatch):
    # each group's eigenvectors are made complex once, right after eigh,
    # instead of being cast by every stage product: a call whose atoms'
    # velocities differ in shape has one group per set of driven atoms
    kinds = []
    original = engine._occupation_integral
    monkeypatch.setattr(engine, "_occupation_integral",
                        lambda vectors, *rest: kinds.append(vectors.dtype) or original(vectors, *rest))
    shifts = {("r1", "r1"): 30.0}
    space = engine.TwoAtomSpace(("1", "r1"), ("1", "r1"), shifts)
    control, target = AtomDrive(OMEGA, K_REF, OPTICAL_SINGLE), AtomDrive(-OMEGA, K_REF, OPTICAL_SINGLE)
    stages = (GateStage(0.0, 0.2, control=control), GateStage(0.2, 0.5, target=target),
              GateStage(0.5, 0.6, control=control, target=target))
    rows = space.single_rydberg_indices
    propagate_stages(space.first_state, space, stages, 0.13, -0.2, 0.4, 0.0, rows)
    propagate_stages(space.first_state, space, stages, np.array([[0.1], [0.2]]),
                     np.array([0.0, 0.3, -0.1]), 0.4, 0.0, rows)
    assert kinds == [np.dtype(complex)] * 4


def test_stage_hashes_are_kept_but_not_pickled():
    # drives, stages and spaces key the engine's programs: each keeps its
    # hash once computed, and a copy from another process computes its own
    stage = GAP_TRAIN[1]
    assert hash(stage) == hash(GateStage(stage.t0, stage.t1, stage.control, stage.target))
    for value in (stage, stage.control, GAP_SPACE):
        hash(value)
        assert "_hash" in vars(value)
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and "_hash" not in vars(copy) and hash(copy) == hash(value)
    with pytest.raises(TypeError):  # array times hash by nothing, every time
        hash(GateStage(0.0, np.array([0.1, 0.2])))


# --- the engine's record ---------------------------------------------------------

def test_counting_records_each_call():
    with counting() as work:
        propagate_atom(GAP_TRAIN, 0.13, 0.4)
    # three stages, three distinct drives in one eigh, none reused
    assert (work.calls, work.stages, work.eigh_calls, work.eigh_matrices, work.reused) \
        == (1, 3, 1, 3, 0)
    assert 0.0 <= work.max_norm_defect < 1e-13
    # a batch diagonalizes per velocity; a state of norm 2 stays at norm 2
    v = np.linspace(-0.3, 0.3, 5)
    with counting() as outer:
        with counting() as inner:
            propagate_stages(2.0 * GAP_SPACE.first_state, GAP_SPACE, GAP_TRAIN, v, 0.0, 0.4, 0.0)
        propagate_stages(GAP_SPACE.first_state, GAP_SPACE, GAP_TRAIN, 0.1, 0.0, 0.4, 0.0)
    assert (inner.calls, inner.eigh_matrices) == (1, 15)
    assert (outer.calls, outer.stages, outer.eigh_calls, outer.eigh_matrices) == (2, 6, 2, 18)
    assert inner.max_norm_defect == outer.max_norm_defect == pytest.approx(1.0, abs=1e-12)
    # a batch of states at one velocity: the defect of the largest
    states = np.array([GAP_SPACE.first_state, 0.5 * GAP_SPACE.first_state])
    with counting() as work:
        psi, _ = propagate_stages(states, GAP_SPACE, GAP_TRAIN, 0.1, 0.0, 0.4, 0.0)
    assert psi.shape == (2, GAP_SPACE.dim)
    assert (work.calls, work.eigh_matrices) == (1, 3)
    assert work.max_norm_defect == pytest.approx(0.5, abs=1e-12)
    # a stage that repeats an earlier one up to its amplitude's sign reuses
    # its eigensystem; a closed window counts no more
    pair = resilient_pair(OMEGA, -OMEGA, K_REF)
    with counting() as work:
        propagate_atom(pair, 0.13, 0.4)
        propagate_atom(pair, np.array([0.1, 0.2]), 0.4)
    propagate_atom(pair, 0.13, 0.4)
    assert (work.calls, work.stages, work.eigh_calls, work.eigh_matrices, work.reused) \
        == (2, 4, 2, 3, 2)
    assert not engine._WINDOWS


def test_counting_adds_every_call_once_across_threads(monkeypatch):
    # each add reads a count, yields, and writes it back: without the lock,
    # two threads' adds would interleave and one call would be lost
    add = engine.WorkRecord.add

    def yielding_add(self, *args):
        calls = self.calls
        time.sleep(2e-4)
        add(self, *args)
        self.calls = calls + 1

    monkeypatch.setattr(engine.WorkRecord, "add", yielding_add)

    def work():
        for _ in range(10):
            propagate_atom(GAP_TRAIN, 0.13, 0.4)

    with counting() as record:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert (record.calls, record.stages, record.eigh_matrices) == (40, 120, 120)


def test_a_nan_final_state_makes_the_norm_defect_nan_for_good():
    # max() would keep 0.0 over a NaN defect, which compares false
    nan_state = np.full(GAP_SPACE.dim, np.nan, dtype=complex)
    with counting() as work:
        propagate_stages(nan_state, GAP_SPACE, GAP_TRAIN, 0.13, 0.0, 0.4, 0.0)
    assert work.calls == 1 and math.isnan(work.max_norm_defect)
    # one NaN row of a batch
    states = np.array([GAP_SPACE.first_state, nan_state, GAP_SPACE.first_state])
    with counting() as work:
        propagate_stages(states, GAP_SPACE, GAP_TRAIN, np.array([0.1, 0.2, 0.3]), 0.0, 0.4, 0.0)
    assert math.isnan(work.max_norm_defect)
    # once NaN, later finite calls, a state of norm 2 among them, keep it
    with counting() as work:
        propagate_atom(GAP_TRAIN, 0.13, 0.4)
        propagate_stages(nan_state, GAP_SPACE, GAP_TRAIN, 0.13, 0.0, 0.4, 0.0)
        propagate_stages(2.0 * GAP_SPACE.first_state, GAP_SPACE, GAP_TRAIN, 0.1, 0.0, 0.4, 0.0)
        propagate_atom(GAP_TRAIN, np.array([0.1, 0.2]), 0.4)
    assert work.calls == 4 and math.isnan(work.max_norm_defect)


# --- the batched pass's kept work arrays ------------------------------------------

# Two atoms, one stage per set of driven atoms: a call whose velocities
# differ in shape has three groups, one of equal shapes one.
PAIR_SPACE = engine.TwoAtomSpace(("1", "r1"), ("1", "r1"), {("r1", "r1"): 30.0})
PAIR_STAGES = (GateStage(0.0, 0.2, control=AtomDrive(OMEGA, K_REF, OPTICAL_SINGLE)),
               GateStage(0.2, 0.5, target=AtomDrive(-OMEGA, K_REF, OPTICAL_SINGLE)),
               GateStage(0.5, 0.6, control=AtomDrive(OMEGA, K_REF, OPTICAL_SINGLE),
                         target=AtomDrive(0.7 * OMEGA, K_REF, OPTICAL_SINGLE)))
PAIR_ROWS = PAIR_SPACE.single_rydberg_indices


def _pair_call(v_c, v_t, z_c=0.4, z_t=-0.3):
    psi, occupation = propagate_stages(PAIR_SPACE.first_state, PAIR_SPACE, PAIR_STAGES,
                                       v_c, v_t, z_c, z_t, PAIR_ROWS)
    return psi, np.asarray(occupation)


def _in_a_new_thread(work):
    """``work()``'s value, computed in a thread that starts with no kept arrays."""
    result = []
    thread = threading.Thread(target=lambda: result.append(work()))
    thread.start()
    thread.join()
    return result[0]


def _other_shapes_and_groups():
    """Batched calls of other shapes, stage lists and group counts."""
    propagate_atom(GAP_TRAIN, np.linspace(-0.3, 0.3, 5), 0.4)
    _pair_call(np.array([[0.1], [0.2]]), np.array([0.0, 0.3, -0.1, 0.2]))
    _pair_call(np.array([0.1, -0.2, 0.3, 0.05]), np.array([0.0, 0.3, -0.1, 0.2]))
    _pair_call(np.array([[0.1], [0.2], [-0.3]]), np.array([0.0, 0.3, -0.1, 0.2]),
               np.array([[0.4], [1.1], [-0.2]]), np.array([0.0, 0.5, -0.5, 1.0]))


@pytest.mark.parametrize("v_c, v_t", [
    (np.array([[-0.31], [0.05], [0.44]]), np.array([-0.2, 0.0, 0.17, 0.5])),
    (np.array([-0.31, 0.05, 0.44]), np.array([-0.2, 0.0, 0.17])),
], ids=["three-groups", "one-group"])
def test_a_batched_call_reads_the_same_bits_after_other_calls_or_in_a_new_thread(v_c, v_t):
    fresh_psi, fresh_occupation = _in_a_new_thread(lambda: _pair_call(v_c, v_t))
    _other_shapes_and_groups()
    for _ in range(2):  # after other shapes, then over its own kept arrays
        psi, occupation = _pair_call(v_c, v_t)
        assert psi.tobytes() == fresh_psi.tobytes()
        assert occupation.tobytes() == fresh_occupation.tobytes()
        _pair_call(np.array([[0.3], [0.1], [0.0]]), np.array([0.4, -0.4, 0.1, 0.2]))


def test_a_batched_result_is_never_a_kept_array():
    v_t = np.array([-0.2, 0.0, 0.17, 0.5])
    first = _pair_call(np.array([[-0.31], [0.05], [0.44]]), v_t)
    saved = [x.copy() for x in first]
    second = _pair_call(np.array([[0.2], [-0.1], [0.3]]), v_t[::-1].copy())
    assert not np.array_equal(first[0], second[0])
    for held, copy in zip(first, saved):
        assert held.tobytes() == copy.tobytes()
        for _, *arrays in engine._KEPT.__dict__.values():
            assert not any(np.shares_memory(held, array) for array in arrays)


def test_a_thread_keeps_one_array_per_role():
    # five batch shapes, each call with three groups: one set of four
    # arrays per group position, made for the last call's shapes
    def work():
        for n in (2, 3, 4, 5, 6):
            _pair_call(np.linspace(-0.3, 0.3, n)[:, None], np.linspace(-0.2, 0.2, n + 1))
        return {g: tuple(x.shape for x in arrays)
                for g, (_, *arrays) in engine._KEPT.__dict__.items()}

    kept = _in_a_new_thread(work)
    assert sorted(kept) == [0, 1, 2]
    for hamiltonians, argument, frame, vectors in kept.values():
        assert hamiltonians == vectors and argument == frame
    # one distinct drive per group, at the last call's 6 control and 7
    # target velocities: the control's, the target's and both atoms'
    assert sorted(shapes[0] for shapes in kept.values()) == sorted(
        [(6, 1, 1, 4, 4), (7, 1, 4, 4), (6, 7, 1, 4, 4)])
