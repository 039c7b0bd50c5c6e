import ast
import json
import math
import os
import re
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dualrail
from dualrail import cli, core, engine, gate, protocols
from dualrail.cli import main
from dualrail.engine import DUAL_RAIL_BASIS, dual_rail_rotation


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    values = {}
    for line in out.strip().split("\n"):
        m = re.match(r"(\w+) = (.+)", line)
        if m:
            try:
                values[m.group(1)] = float(m.group(2))
            except ValueError:
                values[m.group(1)] = m.group(2)
    return values


def test_excite_reference_point(capsys):
    code, out, _ = run_cli(
        capsys, "excite", "--omega-mhz", "0.5", "--v", "0.031", "--t", "0.5"
    )
    assert code == 0
    vals = parse_kv(out)
    assert vals["population_1"] == pytest.approx(3.54e-7, rel=0.05)


def test_restore_reference_point(capsys, tmp_path):
    path = tmp_path / "restore.csv"
    code, out, _ = run_cli(
        capsys, "restore", "--omega-mhz", "2", "--omega-dp-mhz", "-2.0399",
        "--v", "0.05", "--output", str(path),
    )
    assert code == 0
    vals = parse_kv(out)
    assert vals["population_error"] == pytest.approx(1.0e-5, rel=0.2)
    assert abs(vals["phase_1_rad"]) == pytest.approx(math.pi, abs=1e-6)
    # one run is one CSV row
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "v_mps,z0_um,pop_error,phase_rad,r3_leak,rydberg_time_us"
    assert len(lines) == 2
    assert len(lines[1].split(",")) == 6


def test_gap_at_rest(capsys):
    code, out, _ = run_cli(capsys, "gap", "--v", "0")
    assert code == 0
    vals = parse_kv(out)
    assert vals["population_error"] < 1e-9
    assert abs(vals["phase_1_rad"]) == pytest.approx(math.pi, abs=1e-6)


@pytest.mark.parametrize("command", [
    ("gap",),
    ("restore", "--omega-mhz", "2", "--omega-dp-mhz", "-2.0399"),
])
def test_maxwell_average_prints_and_writes_its_summary(capsys, tmp_path, command):
    path = tmp_path / "average.txt"
    code, out, _ = run_cli(capsys, *command, "--temp-uk", "10", "--output", str(path))
    assert code == 0
    assert path.read_text() == out
    vals = parse_kv(out)
    assert {"mean_population", "mean_abs_phase_rad", "weight_mass", "grid_points"} <= vals.keys()
    assert vals["grid_points"] == 201 and vals["weight_mass"] > 0.999
    assert vals["mean_abs_phase_rad"] == pytest.approx(math.pi, abs=1e-8)


def test_optimize_degenerate_at_rest(capsys):
    code, out, _ = run_cli(
        capsys, "optimize", "--omega-mhz", "2", "--sign", "-1", "--v-ref", "0"
    )
    assert code == 0
    vals = parse_kv(out)
    assert vals["omega_dp_mhz"] == pytest.approx(-2.0, abs=1e-9)


def test_sweep_z0_error_shrinks_away_from_origin(capsys, tmp_path):
    path = tmp_path / "z0.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "z0", "--start", "0", "--stop", "8",
        "--num", "3", "--protocol", "gap", "--v", "0.05",
        "--output", str(path),
    )
    assert code == 0
    lines = path.read_text().strip().split("\n")
    errors = [float(line.split(",")[2]) for line in lines[1:]]
    assert errors[-1] < errors[0]


def test_sweep_empty_range_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--axis", "v", "--start", "0", "--stop", "1",
        "--num", "1",
    )
    assert code == 2
    assert "usage error" in err


@pytest.mark.parametrize("start, stop", [("nan", "1"), ("0", "nan"), ("inf", "1"), ("0", "-inf"),
                                         ("-1.7e308", "1.7e308")])
def test_sweep_bounds_that_are_not_finite_are_a_usage_error(capsys, start, stop):
    # linspace ends on the stop value, so an axis can hold finite and
    # non-finite points at once: nan..1 gives (nan, nan, 1)
    code, out, err = run_cli(capsys, "sweep", "--axis", "v", f"--start={start}",
                             f"--stop={stop}", "--num", "3")
    assert code == 2 and out == ""
    assert "usage error: sweep bounds must be finite" in err


@pytest.mark.parametrize("points", ["0", "2", "100"])
def test_table_1_refuses_every_grid_size(capsys, points):
    # table 1 averages over each row's own Maxwell grid: a grid size of 0
    # is refused like any other, not dropped as if it were unset
    code, out, err = run_cli(capsys, "table", "--which", "1", "--grid-points", points)
    assert code == 2 and out == ""
    assert "usage error: --grid-points sets table 2's velocity grid" in err


def test_unknown_flag_rejected(capsys):
    code, _, _ = run_cli(capsys, "excite", "--bogus-flag", "1")
    assert code == 2


def test_help_exits_cleanly(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "excite" in out and "table" in out


def test_sweep_rerun_is_byte_identical(capsys, tmp_path):
    args = [
        "sweep", "--axis", "v", "--start", "0.01", "--stop", "0.05",
        "--num", "3", "--protocol", "restore",
    ]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--output", str(p1))[0] == 0
    assert run_cli(capsys, *args, "--output", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("axis, column, values", [
    ("temp", "temp_uk", (10.0, 105.0, 200.0)),
    ("omega", "omega_mhz", (1.5, 2.0, 2.5)),
])
def test_temp_and_omega_sweeps_record_the_swept_value(capsys, tmp_path, axis, column, values):
    path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--axis", axis, "--start", str(values[0]), "--stop",
        str(values[-1]), "--num", "3", "--protocol", "gap", "--output", str(path),
    )
    assert code == 0
    header, *rows = [line.split(",") for line in path.read_text().strip().split("\n")]
    # a temperature row holds the Maxwell mean of |phase|, not a signed phase
    phase = "mean_abs_phase_rad" if axis == "temp" else "phase_rad"
    assert header == [column, "v_mps", "z0_um", "pop_error", phase, "r3_leak",
                      "rydberg_time_us"]
    rows = np.array(rows, dtype=float)
    assert rows[:, 0].tolist() == list(values)
    # the last row is the run that `gap` makes at the swept value
    flag = {"temp": "--temp-uk", "omega": "--omega-mhz"}[axis]
    code, out, _ = run_cli(capsys, "gap", flag, str(values[-1]),
                           *(("--v", "0.05") if axis == "omega" else ()))
    assert code == 0
    vals = parse_kv(out)
    error = vals["population_error"] if axis == "omega" else 1.0 - vals["mean_population"]
    assert rows[-1, 3] == pytest.approx(error, rel=1e-5)
    phase_key = "phase_1_rad" if axis == "omega" else "mean_abs_phase_rad"
    assert rows[-1, 4] == pytest.approx(vals[phase_key], rel=1e-5)


def test_phase_sweep_slope(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "v", "--start", "0.005", "--stop", "0.1",
        "--num", "6", "--protocol", "phase",
        "--omega-mhz", str(math.sqrt(2.0)),
    )
    assert code == 0
    vals = parse_kv(out)
    assert vals["slope_ratio"] == pytest.approx(0.1287, abs=5e-4)


def test_gate_json_report(capsys, tmp_path):
    path = tmp_path / "gate.json"
    code, out, _ = run_cli(
        capsys, "gate", "--temp-uk", "10", "--grid-points", "6",
        "--output", str(path),
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["schema"] == 1
    assert payload["method"] == "dual_rail"
    assert 0.9 < payload["fidelity"] <= 1.0
    assert "wall_time_s" in parse_kv(out)
    assert "wall_time_s" not in payload  # files stay byte-stable


def test_gate_json_fidelity_is_one_minus_both_errors(capsys, tmp_path):
    path = tmp_path / "gate.json"
    code, _, _ = run_cli(
        capsys, "gate", "--temp-uk", "10", "--grid-points", "6", "--output", str(path),
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["fidelity"] == (
        1.0 - payload["rotation_error_avg"] - payload["decay_error"]
    )


def test_gate_json_rerun_byte_identical(capsys, tmp_path):
    args = ["gate", "--temp-uk", "10", "--grid-points", "4"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(capsys, *args, "--output", str(p1))[0] == 0
    assert run_cli(capsys, *args, "--output", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_custom_config_file(capsys, tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text(
        "[mypreset]\n"
        "mass_kg = 1.44316e-25\n"
        "tau_us = 787.0\n"
        "lambda_lower_nm = 795.0\n"
        "lambda_upper_nm = 474.0\n"
        "lambda_ir_nm = 2272.0\n"
    )
    code, out, _ = run_cli(
        capsys, "gap", "--v", "0", "--config", str(ini), "--preset", "mypreset"
    )
    assert code == 0
    assert parse_kv(out)["population_error"] < 1e-9


def test_unknown_preset_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "gap", "--v", "0", "--preset", "nope")
    assert code == 2
    path = _write_ini(tmp_path, "[mypreset]\ntau_us = 787.0\n" + PRESET_KEYS)
    code, _, err = run_cli(capsys, "gap", "--v", "0", "--config", path, "--preset", "nope")
    assert code == 2
    assert "unknown preset 'nope'" in err


def test_table1_traditional_row(capsys):
    code, out, _ = run_cli(capsys, "table", "--which", "1", "--rows", "2")
    assert code == 0
    m = re.search(r"2\s+traditional\s+10\s+(\d\.\d+)", out)
    assert m, out
    assert float(m.group(1)) == pytest.approx(0.9999955, abs=1e-5)


def test_table_accepts_its_last_row_and_no_further(capsys):
    code, out, _ = run_cli(capsys, "table", "--which", "1", "--rows", "6")
    assert code == 0 and re.search(r"^6\s+traditional\s+200\s", out, re.M), out
    code, out, err = run_cli(capsys, "table", "--which", "1", "--rows", "7")
    assert code == 2 and out == "" and "rows 1 to 6" in err


def test_table2_traditional_row_small_grid(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--which", "2", "--rows", "2", "--grid-points", "12",
    )
    assert code == 0
    m = re.search(r"2\s+traditional\s+10\s+1\s+(\d\.\d+)", out)
    assert m, out
    assert float(m.group(1)) == pytest.approx(1.061, abs=1e-3)


def test_numeric_failure_exit_code(capsys):
    # the optimum escapes the bracket at this reference velocity
    code, _, err = run_cli(
        capsys, "optimize", "--omega-mhz", "1", "--v-ref", "0.12"
    )
    assert code == 3
    assert "numerical failure" in err


def test_weightless_gate_grid_is_numerical_failure(capsys):
    # every Maxwell weight underflows on the 4-point grid at 1e-30 uK
    code, out, err = run_cli(capsys, "gate", "--temp-uk", "1e-30", "--grid-points", "4")
    assert code == 3
    assert err.startswith("numerical failure: the Maxwell weights")
    assert "nan" not in out


def test_unconverged_gate_grid_is_reported_not_refused(capsys):
    # 4 points at 10 uK carry 4.26e-6 of the Maxwell weight: the average
    # stands, and stderr says so once, after it
    code, out, err = run_cli(capsys, "gate", "--grid-points", "4", "--temp-uk", "10")
    assert code == 0 and "rotation_error_avg" in out
    assert err.count("\n") == 1 and "4-point" in err and "10 uK" in err and "4.26e-06" in err
    # rows 1 and 2 share 10 uK, and row 3 is at 200 uK: one line each
    code, _, err = run_cli(capsys, "table", "--which", "2", "--rows", "1,2,3",
                           "--grid-points", "4")
    assert code == 0
    grid = "warning: the 4-point velocity grid carries"
    assert err.splitlines() == [f"{grid} 4.26e-06 of the Maxwell weight at 10 uK, not 1",
                                f"{grid} 0.932 of the Maxwell weight at 200 uK, not 1"]


def _count_weight_masses(monkeypatch):
    """The temperature of each continuum_weight_mass call and whether a
    dualrail.gate frame called it."""
    calls = []
    original = core.continuum_weight_mass

    def counted(velocities, temperature_uk, species):
        frames = traceback.extract_stack()
        calls.append((temperature_uk, any(f.filename == gate.__file__ for f in frames)))
        return original(velocities, temperature_uk, species)

    monkeypatch.setattr(core, "continuum_weight_mass", counted)
    return calls


def test_gate_weighs_its_grid_once_inside_gate(capsys, monkeypatch):
    calls = _count_weight_masses(monkeypatch)
    code, _, err = run_cli(capsys, "gate", "--grid-points", "9")
    assert code == 0 and "9-point" in err
    assert calls == [(10.0, True)]


def test_table2_weighs_each_temperature_once(capsys, monkeypatch):
    calls = _count_weight_masses(monkeypatch)
    code, _, _ = run_cli(capsys, "table", "--which", "2", "--grid-points", "4")
    assert code == 0
    assert calls == [(10.0, False), (200.0, False)]


@pytest.mark.parametrize("argv", [
    ("gate", "--temp-uk", "10"),
    ("table", "--which", "2", "--rows", "3"),
])
def test_converged_gate_grid_leaves_stderr_empty(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""


@pytest.mark.parametrize("argv", [
    ("gap", "--v", "1e308"),
    ("gap", "--z0", "1e308"),
    ("excite", "--v", "1e308"),
])
def test_floating_point_overflow_is_numerical_failure(capsys, argv):
    # the Doppler phase k*v*t leaves the float range
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert err.startswith("numerical failure:")
    assert "nan" not in out


def test_phase_sweep_through_zero_velocity_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--protocol", "phase", "--axis", "v",
        "--start", "-0.1", "--stop", "0.1", "--num", "5",
    )
    assert code == 2
    assert err.startswith("usage error:") and "v = 0" in err
    assert out == ""


@pytest.mark.parametrize("axis, protocol", [
    (axis, protocol) for axis in ("v", "z0")
    for protocol in ("restore", "gap", "traditional", "phase")
    if (axis, protocol) != ("z0", "phase")  # the phase sweep runs over v only
])
def test_sweep_over_v_or_z0_is_one_propagation(capsys, monkeypatch, axis, protocol):
    calls = []
    original = protocols.propagate_atom
    monkeypatch.setattr(protocols, "propagate_atom",
                        lambda *a: calls.append(a) or original(*a))
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", axis, "--protocol", protocol,
        "--start", "0.01", "--stop", "0.2", "--num", "7",
    )
    assert code == 0
    assert len(calls) == 1


def test_excite_trajectory_output(capsys, tmp_path):
    path = tmp_path / "traj.csv"
    code, _, _ = run_cli(
        capsys, "excite", "--omega-mhz", "0.5", "--v", "0.031",
        "--t", "0.1", "--samples", "20", "--output", str(path),
    )
    assert code == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("t_us,pop_")
    assert len(lines) == 22


def test_excite_trajectory_takes_one_eigendecomposition(capsys, tmp_path, monkeypatch):
    calls = []
    original = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h.shape) or original(h))
    code, _, _ = run_cli(
        capsys, "excite", "--t", "0.5", "--samples", "1000",
        "--output", str(tmp_path / "traj.csv"),
    )
    assert code == 0
    # one matrix, on the stage axis of the engine's stacked pass
    assert calls == [(1, 3, 3)]


@pytest.mark.parametrize("drive", ["four-field", "dual-rail", "single-rail"])
def test_excite_stdout_does_not_depend_on_output(capsys, tmp_path, drive):
    argv = ("excite", "--drive", drive, "--v", "0.031", "--z0", "0.7", "--t", "0.5")
    _, plain, _ = run_cli(capsys, *argv)
    _, sampled, _ = run_cli(capsys, *argv, "--output", str(tmp_path / "traj.csv"))
    assert sampled == plain
    last = (tmp_path / "traj.csv").read_text().strip().split("\n")[-1].split(",")
    assert float(last[0]) == 0.5


@pytest.mark.parametrize("argv", [(), ("--v", "0.031")])
def test_excite_phase_of_a_roundoff_amplitude_reads_zero(capsys, tmp_path, monkeypatch, argv):
    # population 3.8e-32 at rest (an amplitude of roundoff size), 3.58e-7 at 0.031 m/s
    runs = []
    original = cli.propagate_atom
    monkeypatch.setattr(cli, "propagate_atom", lambda *a: runs.append(original(*a)) or runs[-1])
    path = tmp_path / "traj.csv"
    code, out, _ = run_cli(capsys, "excite", *argv, "--output", str(path))
    assert code == 0
    sampled, _ = runs[0]
    rails = sampled.amplitudes[-1][[sampled.basis.index(level) for level in DUAL_RAIL_BASIS]]
    amp = (dual_rail_rotation().conj().T @ rails)[DUAL_RAIL_BASIS.index("1")]
    phase = 0.0 if not argv else float(np.angle(amp))
    assert (abs(amp) < 1e-12) == (not argv)
    assert f"phase_1_rad = {phase:.6e}\n" in out
    header, *_, last = (line.split(",") for line in path.read_text().split())
    assert float(last[header.index("phase_1")]) == float(f"{phase:.11e}")


def test_excite_duration_runs_from_zero_and_is_finite(capsys):
    # --t 0 is the ground state itself; an endless duration is refused
    # before anything is computed
    code, out, _ = run_cli(capsys, "excite", "--t", "0")
    assert code == 0
    assert parse_kv(out)["population_1"] == 1.0
    for t in ("inf", "nan"):
        code, out, err = run_cli(capsys, "excite", "--t", t)
        assert (code, out) == (2, "")
        assert err == "usage error: --t must be a nonnegative duration\n"


def test_gate_grid_output_computes_grid_and_report_once(capsys, tmp_path, monkeypatch):
    calls = {"averaged_rotation_error": 0, "gate_report": 0}
    for name in calls:
        original = getattr(gate, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(gate, name, counting)
    report, grid = tmp_path / "gate.json", tmp_path / "grid.csv"
    code, _, _ = run_cli(
        capsys, "gate", "--grid-points", "4",
        "--output", str(report), "--grid-output", str(grid),
    )
    assert code == 0
    assert calls == {"averaged_rotation_error": 1, "gate_report": 1}
    payload = json.loads(report.read_text())
    assert payload["method"] == "dual_rail"
    assert set(payload["amplitudes"]) == {"a_01", "b_10", "c_11"}
    lines = grid.read_text().strip().split("\n")
    assert lines[0] == "v_c_mps,v_t_mps,e_ro"
    assert len(lines) == 17


def test_table2_builds_one_grid_per_method_and_cycle_count(capsys, monkeypatch):
    # rows 1/3, 2/4, 5/7 and 6/8 differ only in temperature, and one call
    # per method computes both of its cycle counts
    calls, grids = [], []
    original = gate.rotation_error_grids

    def counting(params, method, cycle_counts, *args, **kwargs):
        calls.append(method)
        grids.extend((method, n) for n in cycle_counts)
        return original(params, method, cycle_counts, *args, **kwargs)

    monkeypatch.setattr(gate, "rotation_error_grids", counting)
    code, out, _ = run_cli(capsys, "table", "--which", "2", "--grid-points", "4")
    assert code == 0
    assert len(out.strip().split("\n")) == 9
    assert sorted(calls) == ["dual_rail", "traditional"]
    assert sorted(grids) == [
        ("dual_rail", 1), ("dual_rail", 2), ("traditional", 1), ("traditional", 2)
    ]


def test_table2_eigendecomposition_budget(capsys, monkeypatch):
    # 9 x 9 grids, one block of rows each.  Per method, input "01"'s line
    # once (9 dual-rail, 9 traditional), input "10"'s for both cycle counts
    # (54, 18), the shared prefix once (90, 18) and each count's remainder
    # (9 + 18, 9 + 9); running the two counts separately would take
    # 279 + 72 = 351
    matrices = []
    original = np.linalg.eigh

    def counting(h, *args, **kwargs):
        matrices.append(h.reshape(-1, *h.shape[-2:]).shape[0])
        return original(h, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    with engine.counting() as work:
        code, _, _ = run_cli(capsys, "table", "--which", "2", "--grid-points", "9")
    assert code == 0
    assert sum(matrices) == 243
    # the engine's own record agrees, the grid's helper threads included
    assert (work.eigh_calls, work.eigh_matrices) == (len(matrices), 243)


@pytest.mark.parametrize("argv", [
    ("gate", "--jobs", "2"),
    ("gate", "--serial"),
    ("gate", "--format", "json"),
])
def test_removed_options_are_unknown(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv, message", [
    (("table", "--which", "1", "--grid-points", "4"), "usage error: --grid-points"),
    (("table", "--which", "2", "--rows", "2", "--grid-points", "4", "--output"),
     "usage error: table prints to stdout"),
    (("gap", "--v", "0.3", "--temp-uk", "10", "--grid-points", "21"),
     "argument --temp-uk: not allowed with argument --v"),
    (("restore", "--omega-dp-mhz", "-2.0399", "--v", "0.3", "--temp-uk", "10"),
     "argument --temp-uk: not allowed with argument --v"),
])
def test_flags_a_command_would_drop_are_usage_errors(capsys, tmp_path, argv, message):
    path = tmp_path / "out.txt"
    if argv[-1] == "--output":
        argv += (str(path),)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert message in err
    assert out == "" and not path.exists()


@pytest.mark.parametrize("argv, message", [
    (("gap", "--v", "0.05", "--output", "."), "--output . is a directory"),
    (("optimize", "--omega-mhz", "2", "--output", "."), "--output . is a directory"),
    (("excite", "--output", "."), "--output . is a directory"),
    (("gate", "--grid-output", "."), "--grid-output . is a directory"),
    (("gate", "--output", "nope/x.json"), "--output nope/x.json lies in no existing directory"),
    (("gap", "--output", "file.txt/x.csv"), "--output file.txt/x.csv lies in no existing"),
    (("restore", "--output", "."), "--output . is a directory"),
    (("sweep", "--axis", "v", "--start", "0", "--stop", "0.1", "--num", "3", "--output", "."),
     "--output . is a directory"),
])
def test_unwritable_output_is_refused_before_computing(capsys, monkeypatch, tmp_path,
                                                       argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file.txt").write_text("")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"usage error: {message}")
    assert "Traceback" not in err


def test_a_bare_output_name_is_written_in_the_working_directory(capsys, monkeypatch, tmp_path):
    # a name with no directory part lies in ".", which exists
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "gap", "--v", "0.05", "--output", "gap.csv")
    assert code == 0, err
    assert (tmp_path / "gap.csv").read_text().startswith(",".join(cli.OUTCOME_HEADER))


@pytest.mark.parametrize("error, code, message", [
    (PermissionError(13, "Permission denied"), 2, "usage error: [Errno 13] Permission denied\n"),
    (MemoryError(), 3, "numerical failure: out of memory\n"),
    (MemoryError("Unable to allocate 8 GiB"), 3,
     "numerical failure: out of memory Unable to allocate 8 GiB\n"),
])
def test_write_errors_end_with_a_known_exit_code(capsys, monkeypatch, tmp_path,
                                                error, code, message):
    def fail(*args):
        raise error

    monkeypatch.setattr(cli, "_write_json", fail)
    got, _, err = run_cli(capsys, "optimize", "--omega-mhz", "2",
                          "--output", str(tmp_path / "x.json"))
    assert got == code
    assert err == message


def test_traditional_gate_ignores_the_target_amplitude(capsys):
    # the traditional sequence never reads omega_t, so a target too slow
    # for the dual-rail wait window refuses only the dual-rail gate
    argv = ("gate", "--grid-points", "4", "--omega-t-mhz", "0.1")
    code, out, err = run_cli(capsys, *argv, "--method", "traditional")
    assert code == 0, err
    _, plain, _ = run_cli(capsys, *argv[:-2], "--method", "traditional")
    timed = re.compile(r"wall_time_s = .*\n")
    assert timed.sub("", out) == timed.sub("", plain)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage error: target pulse train must fit inside the wait window")


@pytest.mark.parametrize("argv, message", [
    (("gate", "--n-cycles", "-1", "--grid-points", "4"),
     "gap cycle count must be a whole number, 0 or more, got -1"),
    (("gap", "--v", "0", "--n-cycles", "-1"),
     "gap cycle count must be a whole number, 0 or more, got -1"),
    # the traditional sweep reads no count, and still refuses a bad one
    (("sweep", "--protocol", "traditional", "--n-cycles", "-1", "--axis", "v",
      "--start", "0", "--stop", "1", "--num", "2"),
     "gap cycle count must be a whole number, 0 or more, got -1"),
    # the C6 table is judged with the parameters, before any window
    (("gate", "--n-cycles", "0", "--preset", "rb87_5p32", "--grid-points", "4"),
     "config 'rb87_5p32' carries no C6 table"),
    (("gap", "--temp-uk", "10", "--grid-points", "1"),
     "the velocity grid needs at least 2 points, got 1"),
    (("restore", "--omega-dp-mhz", "-2.0399", "--temp-uk", "-5", "--grid-points", "0"),
     "the velocity grid needs at least 2 points, got 0"),
])
def test_each_input_is_refused_where_it_enters(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"usage error: {message}\n"


def test_traditional_gate_without_a_wait_is_refused_at_any_pulse_length(capsys):
    # at 1e12 MHz the pi pulse lasts 3.5e-13 us, and an absolute 1e-12 us
    # window slack let a target 2*pi pulse through a window of zero length
    code, out, err = run_cli(capsys, "gate", "--method", "traditional", "--n-cycles", "0",
                             "--omega-mhz", "1e12", "--grid-points", "4")
    assert code == 2 and out == ""
    assert err.startswith("usage error: target pulse train must fit inside the wait window")


def _write_ini(tmp_path, body):
    ini = tmp_path / "cfg.ini"
    ini.write_text(body)
    return str(ini)


PRESET_KEYS = (
    "mass_kg = 1.44316e-25\n"
    "lambda_lower_nm = 795.0\n"
    "lambda_upper_nm = 474.0\n"
    "lambda_ir_nm = 2272.0\n"
)


@pytest.mark.parametrize("command, n_points", [("gap", "3"), ("restore", "5"), ("gap", "7")])
def test_coarse_maxwell_grid_is_a_numerical_failure(capsys, command, n_points):
    # +-5 rms speeds in 3, 5 or 7 points: weight mass 1.99, 1.085, 1.0016
    code, out, err = run_cli(capsys, command, "--omega-dp-mhz", "-2.0399",
                             "--temp-uk", "10", "--grid-points", n_points)
    assert code == 3
    assert err.startswith("numerical failure:") and "Maxwell weight" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("restore", "--omega-mhz", "0"),
    ("restore", "--omega-mhz", "2", "--omega-dp-mhz", "0"),
    ("gap", "--v", "0", "--omega-dp-mhz", "0"),
    ("gap", "--v", "0", "--omega-dp-mhz", "inf"),
    ("restore", "--omega-mhz", "2", "--omega-dp-mhz", "inf"),
    ("gate", "--method", "traditional", "--omega-mhz", "0", "--grid-points", "4"),
    ("excite", "--t", "-0.5"),
    ("excite", "--samples", "0"),
    ("gate", "--temp-uk", "-5"),
    ("gate", "--grid-points", "0"),
    ("table", "--which", "2", "--rows", "9"),
    ("gate", "--l-um", "1e-60", "--grid-points", "4"),  # L**6 underflows
    ("gap", "--n-cycles", "1" + "0" * 400),  # no float wait time
    ("gate", "--n-cycles", "1" + "0" * 400, "--grid-points", "4"),
    *((command, "--omega-dp-mhz", "-2.0399", "--temp-uk", "10", "--grid-points", n)
      for command in ("gap", "restore") for n in ("1", "0")),  # Maxwell average of < 2 points
    ("optimize", "--omega-mhz", "0", "--v-ref", "0"),
    *(("sweep", "--protocol", "traditional", "--num", "2", *axis) for axis in (
        ("--axis", "v", "--start", "0", "--stop", "1", "--omega-mhz", "0"),
        ("--axis", "omega", "--start", "0", "--stop", "1"),
        ("--axis", "temp", "--start", "1", "--stop", "10", "--omega-mhz", "0"),
    )),  # a zero single-rail amplitude has no pi length
])
def test_bad_numbers_are_usage_errors(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("usage error:")


@pytest.mark.parametrize("v_ref", ["nan", "inf", "-inf"])
def test_non_finite_reference_velocity_is_a_usage_error_naming_it(capsys, v_ref):
    code, out, err = run_cli(capsys, "optimize", "--omega-mhz", "2", f"--v-ref={v_ref}")
    assert code == 2
    assert err.startswith("usage error:") and f"got {v_ref}" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("restore", "--omega-mhz", "nan", "--v", "0.05"),
    ("restore", "--omega-mhz", "inf", "--v", "0.05"),
    ("restore", "--omega-mhz", "1e308", "--v", "0.05"),  # inf in rad/us
    ("sweep", "--axis", "v", "--protocol", "phase", "--start", "0.01", "--stop", "0.1",
     "--num", "3", "--omega-mhz", "nan"),
])
def test_non_finite_rabi_amplitude_is_a_usage_error_naming_it(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("usage error:") and "Rabi amplitude" in err
    assert out == ""


def test_table1_rows_are_the_gap_command_at_its_defaults(capsys):
    code, out, _ = run_cli(capsys, "table", "--which", "1", "--rows", "1,3,5")
    assert code == 0
    table = {int(line.split()[0]): line.split()[3] for line in out.strip().split("\n")[1:]}
    assert sorted(table) == [1, 3, 5]
    for i in table:
        _, _, _, n_cycles, temp, _, _ = cli.RESTORATION_BENCHMARK[i - 1]
        code, out, _ = run_cli(capsys, "gap", "--temp-uk", f"{temp:g}",
                               "--n-cycles", str(n_cycles))
        assert code == 0
        assert f"{parse_kv(out)['mean_population']:.7f}" == table[i], i


def test_table2_rows_are_the_gate_command_at_its_defaults(capsys):
    code, out, _ = run_cli(capsys, "table", "--which", "2", "--grid-points", "4")
    assert code == 0
    table = {int(line.split()[0]): line.split() for line in out.strip().split("\n")[1:]}
    assert sorted(table) == list(range(1, 9))
    for i in (1, 2, 5, 6):  # one row per method and cycle count
        method, temp, n_cycles, _, _ = cli.GATE_BENCHMARK[i - 1]
        code, out, _ = run_cli(capsys, "gate", "--method", method, "--n-cycles", str(n_cycles),
                               "--temp-uk", f"{temp:g}", "--grid-points", "4")
        assert code == 0
        got = parse_kv(out)
        printed = f"{got['duration_us']:.4f}", f"{got['rotation_error_avg']:.4e}"
        assert printed == (table[i][4], table[i][6]), i


@pytest.mark.parametrize("body", [
    "[p]\n" + PRESET_KEYS,  # no tau_us
    "[p]\ntau_us = 787.0\n" + PRESET_KEYS + "c6_95_95 = -14.0\n",  # c6 without l_um
    PRESET_KEYS,  # no section header
])
def test_malformed_config_is_usage_error(capsys, tmp_path, body):
    path = _write_ini(tmp_path, body)
    code, _, err = run_cli(capsys, "gap", "--v", "0", "--config", path, "--preset", "p")
    assert code == 2
    assert err.startswith("usage error:")


def test_config_key_that_sets_nothing_is_a_usage_error(capsys, tmp_path):
    # the misspelled key used to load, leaving the excitation counterpropagating
    path = _write_ini(tmp_path, "[p]\ntau_us = 787.0\n" + PRESET_KEYS
                      + "counterpropogating = false\n")
    code, out, err = run_cli(capsys, "gap", "--v", "0.05", "--config", path, "--preset", "p")
    assert code == 2 and out == ""
    assert err == (f"usage error: counterpropogating = false in preset [p] of {path} "
                   "is not a preset key\n")


GATE_PRESET = {
    "mass_kg": "1.44316e-25", "tau_us": "787.0", "lambda_lower_nm": "795.0",
    "lambda_upper_nm": "474.0", "lambda_ir_nm": "2272.0", "l_um": "7.0",
    "c6_95_95": "-14.0", "c6_95_97": "-21.0", "c6_95_99": "29.0",
    "c6_97_97": "-18.0", "c6_97_99": "-26.0",
}


@pytest.mark.parametrize("key, value, field, argv", [
    ("tau_us", "nan", "rydberg_lifetime_us", ("gate", "--grid-points", "4")),
    ("lambda_lower_nm", "inf", "lambda_lower_nm", ("gap", "--v", "0.05")),
    ("lambda_ir_nm", "nan", "lambda_ir_nm", ("gap", "--v", "0.05")),
    ("mass_kg", "nan", "mass_kg", ("gap", "--temp-uk", "10")),
    ("lambda_upper_nm", "-474.0", "lambda_upper_nm", ("gate", "--grid-points", "4")),
])
def test_bad_config_numbers_are_usage_errors_naming_the_field(capsys, tmp_path, key, value, field, argv):
    # the rest of the preset is valid for the command: only the bad number stops it
    body = "[p]\n" + "".join(f"{k} = {value if k == key else v}\n" for k, v in GATE_PRESET.items())
    code, out, err = run_cli(capsys, *argv, "--config", _write_ini(tmp_path, body), "--preset", "p")
    assert code == 2
    assert err.startswith("usage error:") and field in err
    assert out == ""


@pytest.mark.parametrize("key, value", [
    ("tau_us", "nan"), ("mass_kg", "heavy"), ("l_um", "inf"), ("c6_95_97", "nan"),
    ("lambda_upper_nm", "-474.0"), ("mass_kg", "0"), ("tau_us", "-1"),
    ("c6_95", "1"), ("c6_95_x", "1"),
])
def test_bad_config_numbers_name_their_key_section_and_file(capsys, tmp_path, key, value):
    # a key GATE_PRESET does not hold is added to the preset
    body = "[p]\n" + "".join(f"{k} = {v}\n" for k, v in {**GATE_PRESET, key: value}.items())
    path = _write_ini(tmp_path, body)
    code, out, err = run_cli(capsys, "gate", "--grid-points", "4", "--config", path, "--preset", "p")
    assert code == 2 and out == ""
    assert err.startswith(f"usage error: {key} = {value} in preset [p] of {path} ")


def _subprocess_env():
    src = os.path.dirname(os.path.dirname(dualrail.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


@pytest.mark.parametrize("argv", [
    ("gap", "--v", "nan"),
    ("restore", "--omega-mhz", "2", "--omega-dp-mhz", "-2.0399", "--z0", "nan"),
    ("excite", "--v", "nan"),
    ("gate", "--l-um", "nan", "--grid-points", "4"),
])
def test_nan_input_is_usage_error_not_hang(argv):
    # a subprocess with a timeout, so that a hang fails this test
    proc = subprocess.run(
        [sys.executable, "-m", "dualrail.cli", *argv],
        capture_output=True, text=True, timeout=60, env=_subprocess_env(),
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("usage error:")


def test_cli_import_loads_no_scipy():
    # SciPy serves the test oracle only; importing it would dominate every
    # short command.  The oracle modules
    # (hamiltonians, propagator) serve the tests only, and the production
    # modules import the engine, never them.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, dualrail.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'dualrail'))"],
        capture_output=True, text=True, timeout=60, env=_subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    scipy_modules, dualrail_modules = proc.stdout.splitlines()
    assert scipy_modules == "[]"
    assert "dualrail.hamiltonians" not in dualrail_modules
    assert "dualrail.propagator" not in dualrail_modules


def test_cli_import_loads_no_process_pool_or_ini_parser(tmp_path):
    # nothing runs a process pool, and only --config reads an INI file, so
    # start-up loads neither; the pool name perfbench patches still resolves
    path = _write_ini(tmp_path, "[p]\ntau_us = 787.0\n" + PRESET_KEYS)
    unused = ("concurrent.futures.process", "multiprocessing", "socket",
              "subprocess", "logging", "configparser", "dualrail.propagator",
              "dualrail.hamiltonians")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, dualrail.cli; "
         f"print(sorted(m for m in {unused!r} if m in sys.modules)); "
         "import concurrent.futures as cf; from dualrail import gate, protocols; "
         "print(gate.ProcessPoolExecutor is cf.ProcessPoolExecutor, "
         "protocols.ProcessPoolExecutor is cf.ProcessPoolExecutor); "
         f"code = dualrail.cli.main(['gap', '--v', '0', '--config', {path!r}, '--preset', 'p']); "
         "print(code, 'configparser' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env=_subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[1] == "True True"
    # preset "p" exists only in the INI file, so exit 0 means it was read
    assert lines[-1] == "0 True"
    assert parse_kv("\n".join(lines[2:-1]))["population_error"] < 1e-9


# Refuses every import of SciPy, so that a command that needs it fails.
NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
"""


@pytest.mark.parametrize("argv", [
    [("restore", "--v", "0.05")],
    [("optimize", "--omega-mhz", "2")],
    [("excite",), ("restore",), ("gap", "--temp-uk", "10"), ("optimize", "--omega-mhz", "2"),
     ("gate", "--grid-points", "4"),
     ("sweep", "--axis", "v", "--start", "0.01", "--stop", "0.05", "--num", "3"),
     ("sweep", "--axis", "v", "--protocol", "phase", "--start", "0.01", "--stop", "0.05",
      "--num", "3"),
     ("table", "--which", "1", "--rows", "1"),
     ("table", "--which", "2", "--rows", "1", "--grid-points", "4")],
])
def test_optimizing_commands_load_no_scipy(argv):
    # SciPy is a test dependency only: every subcommand, the Omega_dp
    # optimizer (a plain-Python port of SciPy's bounded method) included,
    # runs with its import blocked.  Each case's command lines run in turn
    # in one child process.
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY +
         "from dualrail.cli import main\n"
         f"codes = [main(list(a)) for a in {argv!r}]\n"
         "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, timeout=60, env=_subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{[0] * len(argv)} []", proc.stderr


def test_only_the_cli_opens_files():
    # gate and protocols only compute; every file the program writes is
    # formatted and opened in cli (core reads INI files through configparser)
    package = Path(dualrail.__file__).parent
    callers = sorted(
        path.name for path in package.glob("*.py") if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "open"
    )
    assert callers == []


# Floats the command line accepts: the specials, zero, negatives and extremes.
FUZZ_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0]),
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(),
)
FUZZ_COUNTS = st.integers(min_value=-2, max_value=40)


def _fuzz_argv(argv, **options):
    """Draw ``argv`` plus up to four ``options`` as ``--name=value``; the
    options not drawn keep their defaults, so many runs get to compute."""
    def with_values(names):
        drawn = st.tuples(argv, *(options[name] for name in names))
        return drawn.map(lambda d: d[0] + [
            f"--{name.replace('_', '-')}={value}" for name, value in zip(names, d[1:])
        ])

    names = st.lists(st.sampled_from(sorted(options)), max_size=4, unique=True)
    return names.flatmap(with_values)


FUZZ_RUNS = st.one_of(
    _fuzz_argv(
        st.just(["excite"]),
        drive=st.sampled_from(["four-field", "dual-rail", "single-rail"]),
        omega_mhz=FUZZ_FLOATS, v=FUZZ_FLOATS, z0=FUZZ_FLOATS, t=FUZZ_FLOATS,
        samples=FUZZ_COUNTS, output=st.just(os.devnull),
    ),
    _fuzz_argv(
        st.just(["gap"]),
        omega_mhz=FUZZ_FLOATS, omega_dp_mhz=FUZZ_FLOATS, omega_if_mhz=FUZZ_FLOATS,
        n_cycles=st.integers(-1, 3), v=FUZZ_FLOATS, z0=FUZZ_FLOATS,
        temp_uk=FUZZ_FLOATS, grid_points=FUZZ_COUNTS,
    ),
    _fuzz_argv(
        st.just(["restore"]),
        omega_mhz=FUZZ_FLOATS, omega_dp_mhz=FUZZ_FLOATS, v=FUZZ_FLOATS,
        z0=FUZZ_FLOATS, temp_uk=FUZZ_FLOATS, grid_points=FUZZ_COUNTS,
    ),
    _fuzz_argv(
        st.integers(-1, 4).map(lambda n: ["gate", f"--grid-points={n}"]),
        method=st.sampled_from(["dual_rail", "traditional"]),
        omega_mhz=FUZZ_FLOATS, omega_dp_mhz=FUZZ_FLOATS, omega_t_mhz=FUZZ_FLOATS,
        omega_if_mhz=FUZZ_FLOATS, n_cycles=st.integers(-1, 3),
        temp_uk=FUZZ_FLOATS, l_um=FUZZ_FLOATS,
    ),
    _fuzz_argv(
        # table 2 always takes a small grid: its default 100 x 100 grids
        # would make the run slow, not different
        st.tuples(st.sampled_from([1, 2]), st.integers(2, 4), st.booleans()).map(
            lambda d: ["table", f"--which={d[0]}"]
            + ([f"--grid-points={d[1]}"] if d[0] == 2 or d[2] else [])),
        rows=st.lists(st.integers(-1, 9), max_size=3).map(lambda r: ",".join(map(str, r))),
        output=st.just(os.devnull),
    ),
)


# Derandomized, so every run draws the same examples and a failure repeats.
@settings(max_examples=80, deadline=None, derandomize=True)
@given(argv=FUZZ_RUNS)
def test_fuzzed_arguments_end_with_a_known_exit_code(argv):
    # no exception may escape main: 0 success, 2 usage, 3 numerical failure
    assert main(argv) in (0, 2, 3)


FUZZ_SWEEPS_AND_OPTIMIZE = st.one_of(
    _fuzz_argv(
        st.tuples(st.sampled_from(["v", "z0", "omega", "temp"]),
                  st.sampled_from(["restore", "gap", "traditional", "phase"]),
                  FUZZ_FLOATS, FUZZ_FLOATS, FUZZ_COUNTS).map(
            lambda d: ["sweep", f"--axis={d[0]}", f"--protocol={d[1]}", f"--start={d[2]}",
                       f"--stop={d[3]}", f"--num={d[4]}", f"--output={os.devnull}"]),
        omega_mhz=FUZZ_FLOATS, omega_dp_mhz=FUZZ_FLOATS, omega_if_mhz=FUZZ_FLOATS,
        n_cycles=st.integers(-1, 3), t_wait=FUZZ_FLOATS, v=FUZZ_FLOATS, z0=FUZZ_FLOATS,
    ),
    _fuzz_argv(
        st.tuples(FUZZ_FLOATS, FUZZ_FLOATS).map(
            lambda d: ["optimize", f"--omega-mhz={d[0]}", f"--v-ref={d[1]}"]),
        sign=st.sampled_from([1, -1]), output=st.just(os.devnull),
    ),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(argv=FUZZ_SWEEPS_AND_OPTIMIZE)
def test_fuzzed_sweeps_and_optimizations_end_with_a_known_exit_code(argv):
    assert main(argv) in (0, 2, 3)


# Every subcommand with each flag that names a file, at the fuzz sizes above.
FUZZ_WRITERS = {
    "excite": st.builds(lambda n: ["excite", f"--samples={n}", "--output"], FUZZ_COUNTS),
    "gap": st.builds(lambda v: ["gap", f"--v={v}", "--output"], FUZZ_FLOATS),
    "restore": st.builds(lambda v: ["restore", f"--v={v}", "--output"], FUZZ_FLOATS),
    "gate": st.builds(lambda n: ["gate", f"--grid-points={n}", "--output"], st.integers(-1, 4)),
    "gate grid": st.builds(lambda n: ["gate", f"--grid-points={n}", "--grid-output"],
                           st.integers(-1, 4)),
    "table": st.builds(lambda which, n: ["table", f"--which={which}", f"--grid-points={n}",
                                         "--output"],
                       st.sampled_from([1, 2]), st.integers(2, 4)),
    "sweep": st.builds(lambda axis, protocol, n: ["sweep", f"--axis={axis}",
                                                  f"--protocol={protocol}", "--start=0.01",
                                                  "--stop=0.1", f"--num={n}", "--output"],
                       st.sampled_from(["v", "z0", "omega", "temp"]),
                       st.sampled_from(["restore", "gap", "traditional", "phase"]), FUZZ_COUNTS),
    "optimize": st.builds(lambda v_ref, sign: ["optimize", "--omega-mhz=2", f"--v-ref={v_ref}",
                                               f"--sign={sign}", "--output"],
                          FUZZ_FLOATS, st.sampled_from([1, -1])),
}
# A read-only directory is left out: run as root, it refuses nothing.
OUTPUT_TARGETS = {
    "directory": "directory",
    "missing parent": os.path.join("missing", "out"),
    "plain file": "out",
}


@pytest.mark.parametrize("target", sorted(OUTPUT_TARGETS))
@pytest.mark.parametrize("command", sorted(FUZZ_WRITERS))
def test_fuzzed_output_targets_end_with_a_known_exit_code(capsys, tmp_path, command, target):
    (tmp_path / "directory").mkdir()
    (tmp_path / "out").touch()
    path = str(tmp_path / OUTPUT_TARGETS[target])

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(argv=FUZZ_WRITERS[command])
    def run(argv):
        code = main([*argv, path])
        # a target no run could write is refused before any computing
        assert code == 2 if target != "plain file" else code in (0, 2, 3)
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    run()
