import math
import pickle
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dualrail.core import (
    CS133,
    RB87,
    RB_D_STATE_C6,
    AtomSpecies,
    ConvergenceError,
    InteractionTable,
    MissingPairError,
    SimulationParams,
    continuum_weight_mass,
    gap_wait_time,
    get_config,
    infrared_wavevector,
    load_configs,
    maxwell_grid,
    maxwell_rule,
    maxwell_weight,
    mhz_to_rad_per_us,
    rad_per_us_to_mhz,
    thermal_rms_speed,
    two_photon_wavevector,
    wavelength_to_wavevector,
)
import oracle


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_rabi_roundtrip(f_mhz):
    assert rad_per_us_to_mhz(mhz_to_rad_per_us(f_mhz)) == pytest.approx(
        f_mhz, rel=1e-12
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


@pytest.mark.parametrize("temp", [0.0, -4.0, math.inf, -math.inf, math.nan])
def test_rms_speed_needs_a_positive_finite_temperature(temp):
    # an infinite temperature would give an infinite rms speed and a flat,
    # weightless Maxwell rule instead of an error
    with pytest.raises(ValueError, match="positive and finite"):
        thermal_rms_speed(temp, RB87)


@pytest.mark.parametrize("lambda_nm", [0.0, -0.0, -780.0])
def test_a_wavelength_must_be_positive(lambda_nm):
    # zero is refused with the others, not left to divide by zero
    with pytest.raises(ValueError, match="wavelength must be positive"):
        wavelength_to_wavevector(lambda_nm)


@pytest.mark.parametrize("temp", [10.0, 200.0])
def test_default_grid_covers_distribution(temp):
    grid = maxwell_grid(temp, RB87)
    assert grid.size == 201
    assert np.allclose(grid, -grid[::-1])
    mass = continuum_weight_mass(grid, temp, RB87)
    assert abs(mass - 1.0) < 1e-6


def test_grid_mass_does_not_depend_on_point_order():
    # the trapezoid runs over the sorted points: a reversed grid read -1
    grid = maxwell_grid(10.0, RB87)
    ascending = continuum_weight_mass(grid, 10.0, RB87)
    permuted = np.random.default_rng(3).permutation(grid)
    for reordered in (grid[::-1], permuted):
        assert continuum_weight_mass(reordered, 10.0, RB87) == ascending


def test_rule_weights_are_normalized_and_carry_the_grid_mass():
    grid = maxwell_grid(10.0, RB87, 9)
    rule = maxwell_rule(grid, 10.0, RB87)
    weights = maxwell_weight(grid, 10.0, RB87)
    assert np.array_equal(rule.weights, weights / np.sum(weights))
    assert rule.mass == continuum_weight_mass(grid, 10.0, RB87)
    # every axis is contracted: a constant of any rank averages to itself
    for shape in ((9,), (9, 9), (9, 9, 9)):
        assert rule.mean(np.full(shape, 2.5)) == pytest.approx(2.5, rel=1e-14)


def test_normalized_weights_sum_to_one():
    grid = maxwell_grid(25.0, CS133)
    w = maxwell_weight(grid, 25.0, CS133)
    w = w / w.sum()
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_two_atom_mean_of_a_separable_sum_is_the_sum_of_one_atom_means():
    v = np.linspace(-0.5, 0.5, 40)
    rng = np.random.default_rng(7)
    f, g = rng.normal(size=v.size), rng.normal(size=v.size)
    for temp in (10.0, 200.0):
        two = maxwell_rule(v, temp, RB87).mean(f[:, None] + g[None, :])
        one = maxwell_rule(v, temp, RB87).mean(f) + maxwell_rule(v, temp, RB87).mean(g)
        assert abs(two - one) <= 1e-15


@pytest.mark.parametrize("n_points", [1, 0, -3])
def test_maxwell_grid_refuses_fewer_than_two_points(n_points):
    # the message is the CLI's; the size is judged before the temperature
    message = f"^the velocity grid needs at least 2 points, got {n_points}$"
    for temp in (10.0, -5.0):
        with pytest.raises(ValueError, match=message):
            maxwell_grid(temp, RB87, n_points)


def test_maxwell_grid_spans_five_rms_speeds_from_two_points():
    sigma = thermal_rms_speed(10.0, RB87)
    assert maxwell_grid(10.0, RB87, 2).tolist() == [-5.0 * sigma, 5.0 * sigma]
    grid = maxwell_grid(200.0, CS133, 3)
    assert grid[0] == -grid[2] == -5.0 * thermal_rms_speed(200.0, CS133)


def test_weights_that_all_underflow_raise():
    # every weight of the 4-point grid underflows to 0 at 1e-30 uK
    with pytest.raises(ConvergenceError,
                       match="the Maxwell weights at 1e-30 uK sum to 0 on the 4-point grid"):
        maxwell_rule(np.linspace(-0.5, 0.5, 4), 1e-30, RB87).mean(np.ones((4, 4)))


def test_builtin_mismatches_match_reference_percentages():
    expected = {
        "rb87_5p12": 3.3,
        "rb87_5p32": 9.8,
        "cs133_6p12": 2.1,
        "rb87_6p12_4f52": 0.18,
        "cs133_7p12": 6.3,
    }
    configs = {c.name: c for c in oracle.builtin_configs()}
    assert set(configs) == set(expected)
    for name, pct in expected.items():
        mismatch = 100.0 * oracle.mismatch(configs[name].wavevectors)
        assert abs(mismatch - pct) < 0.1, (name, mismatch)


def test_wavevectors_are_computed_once_per_config():
    cfg = get_config("rb87_5p12")
    assert cfg.wavevectors is cfg.wavevectors


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
    shift = RB_D_STATE_C6.shift((95, 95))
    # |V11|/2pi = 14e12 Hz / 7^6 = 119.0 MHz
    assert abs(shift) / (2.0 * math.pi) == pytest.approx(
        14.0e12 / 7.0**6 / 1e6, rel=1e-12
    )
    assert abs(shift) / (2.0 * math.pi) == pytest.approx(119.0, rel=1e-3)


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
    assert list(RB_D_STATE_C6.entries) == list(expected)
    assert dict(RB_D_STATE_C6.entries.items()) == expected


def test_interaction_table_is_read_only():
    # the preset is shared by every caller in the process
    entries = get_config("rb87_5p12").interactions.entries
    with pytest.raises(TypeError):
        entries[(95, 95)] = 0.0
    with pytest.raises(TypeError):
        del entries[(95, 95)]
    assert get_config("rb87_5p12").interactions.entries[(95, 95)] == -14.0
    # the table keeps no reference to the dict it was built from
    source = {(95, 95): -14.0}
    table = InteractionTable(source, separation_um=7.0)
    source[(95, 95)] = 0.0
    assert table.c6((95, 95)) == -14.0


def test_interaction_table_hashes_and_compares_by_content():
    items = list(RB_D_STATE_C6.entries.items())
    reordered = InteractionTable(dict(reversed(items)), separation_um=7.0)
    assert reordered == RB_D_STATE_C6
    assert hash(reordered) == hash(RB_D_STATE_C6)
    assert {RB_D_STATE_C6: "plan"}[reordered] == "plan"
    assert InteractionTable({(97, 95): -21.0}, 7.0) == InteractionTable({(95, 97): -21.0}, 7.0)
    changed = InteractionTable({**RB_D_STATE_C6.entries, (95, 95): -14.5}, separation_um=7.0)
    assert changed != RB_D_STATE_C6
    assert replace(RB_D_STATE_C6, separation_um=8.0) != RB_D_STATE_C6
    assert pickle.loads(pickle.dumps(get_config("rb87_5p12"))) == get_config("rb87_5p12")


def test_interaction_missing_pair():
    with pytest.raises(MissingPairError):
        RB_D_STATE_C6.shift((95, 101))


def test_interaction_table_refuses_conflicting_entries_for_one_pair():
    # (95, 97) and (97, 95) name one unordered pair: equal values merge,
    # unequal ones are refused rather than one silently winning
    assert InteractionTable({(95, 97): -21.0, (97, 95): -21.0}, 7.0).entries == {(95, 97): -21.0}
    with pytest.raises(ValueError, match=r"conflicting C6 entries for pair \(95, 97\)"):
        InteractionTable({(95, 97): -21.0, (97, 95): -20.0}, 7.0)


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
    omega_if = mhz_to_rad_per_us(2.0)
    assert gap_wait_time(1, omega_if) == pytest.approx(math.sqrt(2.0) / 2.0)
    assert gap_wait_time(2, omega_if) == pytest.approx(math.sqrt(2.0))
    p = SimulationParams.from_mhz(omega_if_mhz=2.0, n_gap_cycles=2)
    p = replace(p, t_wait_us=gap_wait_time(p.n_gap_cycles, p.omega_if))
    assert p.t_wait_us == pytest.approx(math.sqrt(2.0))


@pytest.mark.parametrize("n", [1.5, 0.5, -1, -0.5, -1e-300, 2.000001, -math.inf, math.nan])
def test_gap_cycle_count_must_be_whole_and_not_negative(n):
    # a half cycle through r3 restores the ground state at phase 0, not pi
    with pytest.raises(ValueError, match="^gap cycle count must be a whole number, 0 or more"):
        gap_wait_time(n, 1.0)
    with pytest.raises(ValueError, match="^gap cycle count|^n_gap_cycles must be finite"):
        SimulationParams(n_gap_cycles=n)


def test_whole_cycle_counts_of_any_number_type_are_taken():
    for n in (0, 2, 2.0, np.int64(3), np.float64(1.0)):
        assert SimulationParams(n_gap_cycles=n).n_gap_cycles == n
    assert gap_wait_time(2.0, 1.0) == gap_wait_time(2, 1.0)
    assert gap_wait_time(0, 1.0) == 0.0


@pytest.mark.parametrize("n", [10**400, 2**1024, math.inf])
def test_cycle_count_beyond_the_float_range_is_a_value_error(n):
    # range first: float() of a larger int raises OverflowError, which is no ValueError
    with pytest.raises(ValueError, match="^gap cycle count exceeds the float range$"):
        gap_wait_time(n, 1.0)
    with pytest.raises(ValueError, match="^gap cycle count exceeds|^n_gap_cycles must be finite"):
        SimulationParams(n_gap_cycles=n)


@pytest.mark.parametrize("omega_if", [0.0, -0.0, -1e-300, -2.0])
def test_gap_wait_needs_a_positive_infrared_amplitude(omega_if):
    with pytest.raises(ValueError, match="^infrared Rabi amplitude must be positive$"):
        gap_wait_time(1, omega_if)


@pytest.mark.parametrize("field", [
    "omega", "omega_dp", "omega_if", "z0_um", "v_mps", "t_wait_us",
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


@pytest.mark.parametrize("line, refusal", [
    ("counterpropogating = false", "is not a preset key"),
    ("lambda_ir = 2272.0", "is not a preset key"),
    ("L_um = 7.0", "is not read without a c6_<na>_<nb> entry (it sets separation_um)"),
])
def test_config_key_that_sets_nothing_is_refused(tmp_path, line, refusal):
    # a misspelled key, or a separation with no C6 entry, used to load
    # with its value silently dropped
    path = tmp_path / "presets.ini"
    path.write_text(
        "[p]\n"
        "mass_kg = 1.44316e-25\n"
        "tau_us = 787.0\n"
        "lambda_lower_nm = 795.0\n"
        "lambda_upper_nm = 474.0\n"
        "lambda_ir_nm = 2272.0\n"
        f"{line}\n"
    )
    key, value = line.lower().split(" = ")
    with pytest.raises(ValueError) as refused:
        load_configs(str(path))
    assert str(refused.value) == f"{key} = {value} in preset [p] of {path} {refusal}"


def test_readme_config_example_loads_as_the_default_preset(tmp_path):
    # its values once carried trailing comments, which INI reads as value text
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    path = tmp_path / "readme.ini"
    path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    (cfg,) = load_configs(str(path))
    ref = get_config("rb87_5p12")
    assert cfg.wavevectors == ref.wavevectors
    assert cfg.interactions == ref.interactions


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
