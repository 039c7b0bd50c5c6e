"""The engine against the closed-form sqrt(2)*Omega oracle of closed_form.py."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from closed_form import closed_form_final, stage_propagator
from dualrail import gate, protocols
from dualrail.core import SimulationParams, gap_wait_time, get_config, mhz_to_rad_per_us
from dualrail.engine import (
    OPTICAL_DUAL, AtomDrive, GateStage, _levels, pi_time, propagate_atom,
    resilient_pair, single_rail_restore,
)

EXACT = settings(max_examples=25, deadline=None, derandomize=True)
amplitudes = st.builds(lambda mhz, sign: sign * mhz_to_rad_per_us(mhz),
                       st.floats(0.5, 3.0), st.sampled_from([1, -1]))
ratios = st.floats(0.9, 1.1)
wavevectors = st.floats(5.0, 10.0)
speeds = st.floats(-0.6, 0.6)
coordinates = st.floats(-5.0, 5.0)


def _assert_matches_oracle(train, v, z0):
    final, _ = propagate_atom(train, v, z0)
    expected = closed_form_final(train, final.basis, v, z0)
    assert np.max(np.abs(final.amplitudes - expected)) < 1e-12


@EXACT
@given(amplitudes, ratios, wavevectors, speeds, coordinates)
def test_restore_matches_the_closed_form(omega, ratio, k, v, z0):
    _assert_matches_oracle(resilient_pair(omega, -ratio * omega, k), v, z0)


@EXACT
@given(amplitudes, ratios, st.floats(0.8, 1.2), wavevectors, st.floats(0.9, 1.1),
       speeds, coordinates, st.integers(1, 3))
def test_gap_matches_the_closed_form(omega, ratio, ir_ratio, k, k_ratio, v, z0, n):
    omega_if = ir_ratio * abs(omega)
    wait = gap_wait_time(n, omega_if), omega_if, k_ratio * k
    train = resilient_pair(omega, -ratio * omega, k, wait)
    _assert_matches_oracle(train, v, z0)


@EXACT
@given(amplitudes, wavevectors, speeds, coordinates, st.floats(0.0, 2.0))
def test_traditional_matches_the_closed_form(omega, k, v, z0, t_wait):
    _assert_matches_oracle(single_rail_restore(omega, k, t_wait), v, z0)


@EXACT
@given(amplitudes, wavevectors, speeds, coordinates, st.lists(st.floats(0.0, 3.0),
                                                               min_size=1, max_size=6))
def test_sampled_excitation_matches_the_closed_form(omega, k, v, z0, ends):
    drive = AtomDrive(omega, k, OPTICAL_DUAL)
    sampled, _ = propagate_atom([GateStage(0.0, np.array(ends), drive)], v, z0)
    for t, amps in zip(ends, sampled.amplitudes):
        expected = closed_form_final([GateStage(0.0, t, drive)], sampled.basis, v, z0)
        assert np.max(np.abs(amps - expected)) < 1e-12


@EXACT
@given(amplitudes, wavevectors, coordinates)
def test_pi_time_transfers_the_ground_state_at_rest(omega, k, z0):
    # pi/(sqrt(2)|Omega|): the two-level transition runs at sqrt(2)*Omega
    assert pi_time(omega) == math.pi / (math.sqrt(2.0) * abs(omega))
    drive = AtomDrive(omega, k, OPTICAL_DUAL)
    train = [GateStage(0.0, pi_time(omega), drive)]
    levels = _levels(train)
    u = stage_propagator(drive, levels, 0.0, pi_time(omega), 0.0, z0)
    assert abs(u[levels.index("1"), levels.index("1")]) < 1e-12
    final, _ = propagate_atom(train, 0.0, z0)
    assert final.population("1") < 1e-24


@EXACT
@given(amplitudes, ratios, wavevectors, coordinates, st.integers(1, 3))
def test_atoms_at_rest_return_to_ground_with_no_doppler_phase(omega, ratio, k, z0, n):
    # pi + 3*pi is two full turns of the sqrt(2)*Omega transition, whatever
    # Omega_dp, and the infrared wait n full cycles: the ground amplitude is
    # +1, or -1 when the deexcitation flips the sign, at every z0
    for sign in (1, -1):
        omega_dp = sign * ratio * omega
        restore = resilient_pair(omega, omega_dp, k)
        gap = resilient_pair(omega, omega_dp, k, (gap_wait_time(n, abs(omega)),
                                                  abs(omega), 1.1 * k))
        for train in (restore, gap):
            final, _ = propagate_atom(train, 0.0, z0)
            expected = closed_form_final(train, final.basis, 0.0, z0)
            for amplitude in (final.amplitude("1"), expected[final.basis.index("1")]):
                assert abs(amplitude - sign) < 1e-12
        outcome = protocols.run_excite_restore(SimulationParams(
            omega=omega, omega_dp=omega_dp, z0_um=z0), k)
        assert abs(outcome.ground_population - 1.0) < 1e-12
        assert abs(abs(outcome.ground_phase) - (0.0 if sign == 1 else math.pi)) < 1e-12


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("method", ["dual_rail", "traditional"])
@EXACT
@given(amplitudes, ratios, st.sampled_from([1, -1]), speeds, speeds, coordinates, coordinates)
def test_gate_lone_inputs_match_the_closed_form(method, n, omega, ratio, target_sign,
                                               v_c, v_t, z_c, z_t):
    # input "01" is the target's train alone, run in the target's slot, and
    # "10" the control's: each is its atom's ground amplitude
    params = gate.GateParams(omega, -ratio * omega, target_sign * omega, abs(omega), n,
                             get_config("rb87_5p12"), z_c, z_t)
    report = gate.gate_report(params, v_c, v_t, method)
    control, target = gate._trains(params, method)
    for amplitude, train, v, z0 in ((report.a, target, v_t, z_t), (report.b, control, v_c, z_c)):
        levels = _levels(train)
        assert abs(amplitude - closed_form_final(train, levels, v, z0)[levels.index("1")]) < 1e-12
