import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dualrail.core import (
    CS133,
    RB87,
    RB_D_STATE_C6,
    AtomSpecies,
    MissingPairError,
    SimulationParams,
    builtin_configs,
    continuum_weight_mass,
    gap_wait_time,
    get_config,
    infrared_wavevector,
    interaction_shifts,
    load_configs,
    maxwell_grid,
    maxwell_weight,
    mhz_to_rad_per_us,
    rad_per_us_to_mhz,
    thermal_rms_speed,
    two_photon_wavevector,
    wavelength_to_wavevector,
    wavevector_to_wavelength,
)


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_rabi_roundtrip(f_mhz):
    assert rad_per_us_to_mhz(mhz_to_rad_per_us(f_mhz)) == pytest.approx(
        f_mhz, rel=1e-12
    )


@given(st.floats(min_value=100.0, max_value=5000.0))
def test_wavelength_roundtrip(lam):
    assert wavevector_to_wavelength(wavelength_to_wavevector(lam)) == pytest.approx(
        lam, rel=1e-12
    )


def test_one_mps_equals_one_um_per_us():
    # k [rad/um] * v [m/s] must come out in rad/us with no scale factor
    k = wavelength_to_wavevector(1000.0)  # 2*pi rad/um
    assert k * 1.0 == pytest.approx(2.0 * math.pi)


def test_rms_speed_rb87_at_10uk():
    assert thermal_rms_speed(10.0, RB87) == pytest.approx(0.031, abs=2e-4)


def test_maxwell_weight_peak_and_monotone():
    w0 = maxwell_weight(0.0, 10.0, RB87)
    assert w0 == 1.0
    vs = np.linspace(0.0, 0.2, 50)
    w = maxwell_weight(vs, 10.0, RB87)
    assert np.all(np.diff(w) < 0)


@given(st.floats(min_value=-0.5, max_value=0.5))
def test_maxwell_weight_even(v):
    assert maxwell_weight(v, 10.0, RB87) == pytest.approx(
        maxwell_weight(-v, 10.0, RB87), rel=1e-12
    )


def test_maxwell_weight_rejects_bad_temperature():
    with pytest.raises(ValueError):
        maxwell_weight(0.1, 0.0, RB87)
    with pytest.raises(ValueError):
        maxwell_weight(0.1, -4.0, RB87)


@pytest.mark.parametrize("temp", [10.0, 200.0])
def test_default_grid_covers_distribution(temp):
    grid = maxwell_grid(temp, RB87)
    assert grid.size == 201
    assert np.allclose(grid, -grid[::-1])
    mass = continuum_weight_mass(grid, temp, RB87)
    assert abs(mass - 1.0) < 1e-6


def test_normalized_weights_sum_to_one():
    grid = maxwell_grid(25.0, CS133)
    w = maxwell_weight(grid, 25.0, CS133)
    w = w / w.sum()
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_builtin_mismatches_match_reference_percentages():
    expected = {
        "rb87_5p12": 3.3,
        "rb87_5p32": 9.8,
        "cs133_6p12": 2.1,
        "rb87_6p12_4f52": 0.18,
        "cs133_7p12": 6.3,
    }
    configs = {c.name: c for c in builtin_configs()}
    assert set(configs) == set(expected)
    for name, pct in expected.items():
        mismatch = 100.0 * configs[name].wavevectors.mismatch
        assert abs(mismatch - pct) < 0.1, (name, mismatch)


def test_default_preset_wavevectors():
    wv = get_config("rb87_5p12").wavevectors
    assert wv.k_excite == pytest.approx(5.35, abs=0.01)
    assert wv.k_wait == pytest.approx(5.53, abs=0.01)
    # effective two-photon difference frequency of the 474/795 nm pair
    assert wv.k_excite == pytest.approx(
        2.0 * math.pi * (1.0 / 474.0 - 1.0 / 795.0) * 1000.0, rel=1e-12
    )


def test_copropagating_wavevector_adds():
    k_minus = two_photon_wavevector(795.0, 474.0, True)
    k_plus = two_photon_wavevector(795.0, 474.0, False)
    assert k_plus > k_minus
    assert k_plus == pytest.approx(
        2.0 * math.pi * (1.0 / 474.0 + 1.0 / 795.0) * 1000.0, rel=1e-12
    )


def test_infrared_wavevector_counterpropagating_pair():
    assert infrared_wavevector(2272.0) == pytest.approx(
        4.0 * math.pi * 1000.0 / 2272.0, rel=1e-12
    )


def test_interaction_shift_magnitude():
    shifts = interaction_shifts(RB_D_STATE_C6)
    # |V11|/2pi = 14e12 Hz / 7^6 = 119.0 MHz
    assert abs(shifts[(95, 95)]) / (2.0 * math.pi) == pytest.approx(
        14.0e12 / 7.0**6 / 1e6, rel=1e-12
    )
    assert abs(shifts[(95, 95)]) / (2.0 * math.pi) == pytest.approx(119.0, rel=1e-3)


def test_interaction_table_symmetric_lookup():
    assert RB_D_STATE_C6.shift((95, 97)) == RB_D_STATE_C6.shift((97, 95))
    assert RB_D_STATE_C6.c6((99, 95)) == 29.0


def test_interaction_table_reference_entries():
    expected = {
        (95, 95): -14.0,
        (95, 97): -21.0,
        (95, 99): 29.0,
        (97, 97): -18.0,
        (97, 99): -26.0,
    }
    assert RB_D_STATE_C6.entries == expected


def test_interaction_missing_pair():
    with pytest.raises(MissingPairError):
        RB_D_STATE_C6.shift((95, 101))


def test_blockade_floor_is_about_1e_minus_4():
    # consistency oracle: (sqrt(2)*Omega/V11)^2 / 8 for Omega/2pi = 2 MHz
    omega = mhz_to_rad_per_us(2.0)
    v11 = RB_D_STATE_C6.shift((95, 95))
    floor = (math.sqrt(2.0) * omega / v11) ** 2 / 8.0
    assert 5e-5 < floor < 2e-4


def test_species_validation():
    with pytest.raises(ValueError):
        AtomSpecies("bad", -1.0, 787.0)
    with pytest.raises(ValueError):
        AtomSpecies("bad", 1e-25, 0.0)


def test_params_validation_and_gap_wait():
    with pytest.raises(ValueError):
        SimulationParams(t_wait_us=-1.0)
    with pytest.raises(ValueError):
        SimulationParams(temperature_uk=-1.0)
    omega_if = mhz_to_rad_per_us(2.0)
    assert gap_wait_time(1, omega_if) == pytest.approx(math.sqrt(2.0) / 2.0)
    assert gap_wait_time(2, omega_if) == pytest.approx(math.sqrt(2.0))
    p = SimulationParams.from_mhz(omega_if_mhz=2.0, n_gap_cycles=2).with_gap_wait()
    assert p.t_wait_us == pytest.approx(math.sqrt(2.0))


@pytest.mark.parametrize("field", [
    "omega", "omega_dp", "omega_if", "omega_t", "z0_um", "v_mps", "t_wait_us",
    "temperature_uk",
])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_params_reject_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=field):
        SimulationParams(**{field: value})


@pytest.mark.parametrize("value", [
    np.array([0.1, np.nan]),
    np.array([-np.inf, 0.0, 0.2]),
    np.float32("nan"),
    np.float64("inf"),
])
def test_params_check_arrays_and_numpy_scalars_elementwise(value):
    with pytest.raises(ValueError, match="v_mps"):
        SimulationParams(v_mps=value)
    with pytest.raises(ValueError, match="z0_um"):
        SimulationParams(z0_um=value)


def test_params_accept_finite_velocity_arrays():
    v = np.linspace(-0.1, 0.1, 5)
    assert SimulationParams(v_mps=v, z0_um=np.float32(0.5)).v_mps is v


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "presets.ini"
    path.write_text(
        "[custom_rb]\n"
        "species = Rb-87\n"
        "mass_kg = 1.44316e-25\n"
        "tau_us = 787.0\n"
        "lambda_lower_nm = 795.0\n"
        "lambda_upper_nm = 474.0\n"
        "lambda_ir_nm = 2272.0\n"
        "counterpropagating = true\n"
        "l_um = 7.0\n"
        "c6_95_95 = -14.0\n"
        "c6_95_97 = -21.0\n"
        "c6_95_99 = 29.0\n"
        "c6_97_97 = -18.0\n"
        "c6_97_99 = -26.0\n"
    )
    (cfg,) = load_configs(str(path))
    ref = get_config("rb87_5p12")
    assert cfg.wavevectors.k_excite == pytest.approx(
        ref.wavevectors.k_excite, rel=1e-9
    )
    assert cfg.wavevectors.k_wait == pytest.approx(ref.wavevectors.k_wait, rel=1e-9)
    assert cfg.interactions.entries == ref.interactions.entries
    assert cfg.species.mass_kg == pytest.approx(ref.species.mass_kg, rel=1e-5)


def test_config_env_var(tmp_path, monkeypatch):
    path = tmp_path / "p.ini"
    path.write_text(
        "[envpreset]\n"
        "mass_kg = 1.44316e-25\n"
        "tau_us = 787.0\n"
        "lambda_lower_nm = 795.0\n"
        "lambda_upper_nm = 474.0\n"
        "lambda_ir_nm = 2272.0\n"
    )
    monkeypatch.setenv("DUALRAIL_CONFIG", str(path))
    cfg = get_config("envpreset")
    assert cfg.species.rydberg_lifetime_us == 787.0
    with pytest.raises(KeyError):
        get_config("not_a_preset")


def test_config_path_takes_precedence_over_env_var(tmp_path, monkeypatch):
    body = (
        "mass_kg = 1.44316e-25\n"
        "lambda_lower_nm = 795.0\n"
        "lambda_upper_nm = 474.0\n"
        "lambda_ir_nm = 2272.0\n"
    )
    env_file, arg_file = tmp_path / "env.ini", tmp_path / "arg.ini"
    env_file.write_text("[shared]\ntau_us = 100.0\n" + body)
    arg_file.write_text("[shared]\ntau_us = 200.0\n" + body)
    monkeypatch.setenv("DUALRAIL_CONFIG", str(env_file))
    assert get_config("shared").species.rydberg_lifetime_us == 100.0
    assert get_config("shared", str(arg_file)).species.rydberg_lifetime_us == 200.0
    assert get_config("rb87_5p12", str(arg_file)).name == "rb87_5p12"
    with pytest.raises(KeyError):
        get_config("not_a_preset", str(arg_file))


def test_unknown_preset():
    with pytest.raises(KeyError):
        get_config("nonexistent")
