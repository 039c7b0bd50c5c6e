import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualrail.core import interaction_shifts, mhz_to_rad_per_us, RB_D_STATE_C6
from dualrail.engine import (
    DUAL_RAIL_BASIS,
    INFRARED,
    OPTICAL_DUAL,
    AtomDrive,
    GateStage,
    TwoAtomSpace,
    dual_rail_rotation,
    pi_time,
)
from dualrail.hamiltonians import (
    GAP_BASIS,
    NINE_BASIS,
    h_dual_rail,
    h_four_field,
    h_gate_nine,
    h_single_rail,
    lab_hamiltonian,
)

K_REF = 5.352287460140241  # rad/um, 474/795 nm counterpropagating pair
OMEGA = mhz_to_rad_per_us(2.0)

phys = dict(
    t=st.floats(min_value=0.0, max_value=5.0),
    z0=st.floats(min_value=-10.0, max_value=10.0),
    v=st.floats(min_value=-0.5, max_value=0.5),
)


def test_single_rail_zero_phase():
    h = h_single_rail(0.0, OMEGA, K_REF, 0.0, 0.3)
    assert h[1, 0] == pytest.approx(OMEGA / 2.0)
    assert h[0, 1] == pytest.approx(OMEGA / 2.0)


def test_single_rail_quarter_wave():
    z0 = (math.pi / 2.0) / K_REF
    h = h_single_rail(0.0, OMEGA, K_REF, z0, 0.0)
    assert h[1, 0] == pytest.approx(1j * OMEGA / 2.0)


def test_dual_rail_zero_phase():
    h = h_dual_rail(0.0, OMEGA, K_REF, 0.0, 0.1)
    assert h[0, 2] == pytest.approx(OMEGA / 2.0)  # <r2|H|1>
    assert h[1, 2] == pytest.approx(OMEGA / 2.0)  # <r1|H|1>
    assert np.all(np.diag(h) == 0)


@given(**phys)
def test_dual_rail_hermitian_exact(t, z0, v):
    h = h_dual_rail(t, OMEGA, K_REF, z0, v)
    assert np.max(np.abs(h - h.conj().T)) == 0.0


@given(**phys)
def test_dual_rail_spectrum(t, z0, v):
    h = h_dual_rail(t, OMEGA, K_REF, z0, v)
    eig = np.sort(np.linalg.eigvalsh(h))
    ref = np.array([-OMEGA / math.sqrt(2.0), 0.0, OMEGA / math.sqrt(2.0)])
    assert np.max(np.abs(eig - ref)) < 1e-12 * OMEGA


def test_four_field_nodes():
    h = h_four_field(0.0, OMEGA, K_REF, 0.0, 0.0)  # k z = 0
    assert h[1, 2] == pytest.approx(OMEGA)
    assert h[0, 2] == 0.0
    z0 = (math.pi / 2.0) / K_REF  # k z = pi/2
    h = h_four_field(0.0, OMEGA, K_REF, z0, 0.0)
    assert abs(h[1, 2]) < 1e-14 * OMEGA
    assert h[0, 2] == pytest.approx(1j * OMEGA)


@given(**phys)
def test_four_field_rotates_onto_dual_rail(t, z0, v):
    # |r+-> = (|r1> +- |r2>)/sqrt(2) maps the cos/sin drive onto the
    # two-rail drive with amplitude sqrt(2)*Omega.
    r = dual_rail_rotation()
    hf = h_four_field(t, OMEGA, K_REF, z0, v)
    hd = h_dual_rail(t, math.sqrt(2.0) * OMEGA, K_REF, z0, v)
    assert np.max(np.abs(r @ hf @ r.conj().T - hd)) < 1e-12 * OMEGA


def test_pi_time_rejects_zero_amplitude():
    assert pi_time(-OMEGA) == pytest.approx(math.pi / (math.sqrt(2.0) * OMEGA))
    with pytest.raises(ValueError):
        pi_time(0.0)


# The four-level gap system (1, r1, r2, r3) of one atom, as the stage engine
# describes it: the atom in the control slot, an uncoupled spectator target.
GAP_SPACE = TwoAtomSpace(GAP_BASIS, ("0",))


def _gap_h(drive, t, z0, v):
    return lab_hamiltonian(GAP_SPACE, GateStage(0.0, 1.0, control=drive), t, v, 0.0, z0, 0.0)


def test_gap_idle_is_zero():
    h = _gap_h(None, 0.7, 3.0, 0.2)
    assert np.all(h == 0.0)


def test_gap_excite_embeds_dual_rail():
    t, z0, v = 0.13, 1.7, 0.05
    h4 = _gap_h(AtomDrive(OMEGA, K_REF, OPTICAL_DUAL), t, z0, v)
    h3 = h_dual_rail(t, OMEGA, K_REF, z0, v)
    # gap basis (1, r1, r2, r3) vs rail basis (r2, r1, 1)
    assert h4[1, 0] == pytest.approx(h3[1, 2], abs=1e-15 * OMEGA)
    assert h4[2, 0] == pytest.approx(h3[0, 2], abs=1e-15 * OMEGA)
    assert np.all(h4[3, :] == 0.0) and np.all(h4[:, 3] == 0.0)
    assert np.max(np.abs(h4 - h4.conj().T)) == 0.0


def test_gap_infrared_signs():
    k_w = 5.53
    t, z0, v = 0.4, 0.9, 0.11
    h = _gap_h(AtomDrive(OMEGA, k_w, INFRARED), t, z0, v)
    z = z0 + v * t
    assert h[1, 3] == pytest.approx(0.5 * OMEGA * np.exp(1j * k_w * z))
    assert h[2, 3] == pytest.approx(0.5 * OMEGA * np.exp(-1j * k_w * z))
    assert np.all(h[0, :] == 0.0) and np.all(h[:, 0] == 0.0)


def test_gap_deexcite_sign_flip():
    h = _gap_h(AtomDrive(-OMEGA, K_REF, OPTICAL_DUAL), 0.0, 0.0, 0.0)
    assert h[1, 0] == pytest.approx(-OMEGA / 2.0)


def _shifts():
    table = interaction_shifts(RB_D_STATE_C6)
    return {
        (1, 1): table[(95, 95)],
        (1, 2): table[(95, 97)],
        (1, 3): table[(95, 99)],
        (2, 2): table[(97, 97)],
        (2, 3): table[(97, 99)],
    }


def test_gate_nine_drives_off_is_diagonal():
    s = _shifts()
    h = h_gate_nine(0.0, 0.0, 0.0, K_REF, 5.53, 0.0, 0.0, s)
    expected = np.diag(
        [
            s[(2, 3)], s[(1, 3)], 0.0,
            s[(2, 2)], s[(1, 2)], 0.0,
            s[(1, 2)], s[(1, 1)], 0.0,
        ]
    )
    assert np.max(np.abs(h - expected)) == 0.0


def test_gate_nine_matches_tensor_composition():
    # Independent construction: control IR coupling (basis r3, r2, r1)
    # kron identity plus identity kron target optical drive (basis r2, r1, 1)
    # plus the interaction diagonal.
    s = _shifts()
    omega_t = mhz_to_rad_per_us(2.0)
    omega_if = mhz_to_rad_per_us(1.5)
    k, k_w = K_REF, 5.530973
    t, z_c, z_t = 0.37, 1.23, -0.71

    target = h_dual_rail(0.0, omega_t, k, z_t, 0.0)
    control = np.zeros((3, 3), dtype=complex)
    control[2, 0] = 0.5 * omega_if * np.exp(1j * k_w * z_c)   # <r1|H|r3>
    control[1, 0] = 0.5 * omega_if * np.exp(-1j * k_w * z_c)  # <r2|H|r3>
    control[0, 2] = np.conj(control[2, 0])
    control[0, 1] = np.conj(control[1, 0])
    composed = np.kron(control, np.eye(3)) + np.kron(np.eye(3), target)
    composed += np.diag(
        [
            s[(2, 3)], s[(1, 3)], 0.0,
            s[(2, 2)], s[(1, 2)], 0.0,
            s[(1, 2)], s[(1, 1)], 0.0,
        ]
    )

    h = h_gate_nine(t, omega_t, omega_if, k, k_w, z_c, z_t, s)
    # the builder evaluates phases at z = z0 + v t supplied by the caller;
    # the composition above used v = 0 with matching coordinates
    assert np.max(np.abs(h - composed)) < 1e-14 * max(omega_t, omega_if)


def test_gate_nine_third_row_phases():
    # <r31|H|r3r2> carries e^{+i k z_t}; <r31|H|r3r1> carries e^{-i k z_t}
    s = _shifts()
    z_t = 0.83
    h = h_gate_nine(0.0, OMEGA, OMEGA, K_REF, 5.53, 0.4, z_t, s)
    i_r31 = NINE_BASIS.index("r31")
    assert h[i_r31, NINE_BASIS.index("r3r2")] == pytest.approx(
        0.5 * OMEGA * np.exp(1j * K_REF * z_t)
    )
    assert h[i_r31, NINE_BASIS.index("r3r1")] == pytest.approx(
        0.5 * OMEGA * np.exp(-1j * K_REF * z_t)
    )


@settings(max_examples=25)
@given(
    z_c=st.floats(min_value=-5.0, max_value=5.0),
    z_t=st.floats(min_value=-5.0, max_value=5.0),
)
def test_gate_nine_hermitian(z_c, z_t):
    h = h_gate_nine(0.0, OMEGA, OMEGA, K_REF, 5.53, z_c, z_t, _shifts())
    assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_gate_nine_missing_shift():
    s = _shifts()
    del s[(2, 3)]
    with pytest.raises(KeyError):
        h_gate_nine(0.0, OMEGA, OMEGA, K_REF, 5.53, 0.0, 0.0, s)


def test_bases_are_consistent():
    assert DUAL_RAIL_BASIS == ("r2", "r1", "1")
    assert GAP_BASIS == ("1", "r1", "r2", "r3")
    assert len(NINE_BASIS) == 9
