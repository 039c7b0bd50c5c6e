import math

import numpy as np
import pytest

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
    _levels,
    _occupation_integral,
    pi_time,
    propagate_atom,
    pulse_train,
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
