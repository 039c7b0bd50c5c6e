import json
import math
import os
import re
import subprocess
import sys

import pytest

import dualrail
from dualrail import gate
from dualrail.cli import main


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


def test_restore_reference_point(capsys):
    code, out, _ = run_cli(
        capsys, "restore", "--omega-mhz", "2", "--omega-dp-mhz", "-2.0399",
        "--v", "0.05",
    )
    assert code == 0
    vals = parse_kv(out)
    assert vals["population_error"] == pytest.approx(1.0e-5, rel=0.2)
    assert abs(vals["phase_1_rad"]) == pytest.approx(math.pi, abs=1e-6)


def test_gap_at_rest(capsys):
    code, out, _ = run_cli(capsys, "gap", "--v", "0")
    assert code == 0
    vals = parse_kv(out)
    assert vals["population_error"] < 1e-9
    assert abs(vals["phase_1_rad"]) == pytest.approx(math.pi, abs=1e-6)


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
        capsys, "gate", "--temp-uk", "10", "--grid-points", "6", "--serial",
        "--output", str(path),
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["schema"] == 1
    assert payload["method"] == "dual_rail"
    assert 0.9 < payload["fidelity"] <= 1.0
    assert "wall_time_s" in parse_kv(out)
    assert "wall_time_s" not in payload  # files stay byte-stable


def test_gate_json_rerun_byte_identical(capsys, tmp_path):
    args = ["gate", "--temp-uk", "10", "--grid-points", "4", "--serial"]
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


def test_unknown_preset_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "gap", "--v", "0", "--preset", "nope")
    assert code == 2


def test_table1_traditional_row(capsys):
    code, out, _ = run_cli(capsys, "table", "--which", "1", "--rows", "2")
    assert code == 0
    m = re.search(r"2\s+traditional\s+10\s+(\d\.\d+)", out)
    assert m, out
    assert float(m.group(1)) == pytest.approx(0.9999955, abs=1e-5)


def test_table2_traditional_row_small_grid(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--which", "2", "--rows", "2",
        "--grid-points", "12", "--serial",
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
        capsys, "gate", "--grid-points", "4", "--serial",
        "--output", str(report), "--grid-output", str(grid),
    )
    assert code == 0
    assert calls == {"averaged_rotation_error": 1, "gate_report": 1}
    assert len(grid.read_text().strip().split("\n")) == 17


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


@pytest.mark.parametrize("argv", [
    ("restore", "--omega-mhz", "0"),
    ("restore", "--omega-mhz", "2", "--omega-dp-mhz", "0"),
    ("gap", "--v", "0", "--omega-dp-mhz", "0"),
    ("gap", "--v", "0", "--omega-dp-mhz", "inf"),
    ("restore", "--omega-mhz", "2", "--omega-dp-mhz", "inf"),
    ("gate", "--method", "traditional", "--omega-mhz", "0", "--serial",
     "--grid-points", "4"),
    ("excite", "--t", "-0.5"),
])
def test_bad_numbers_are_usage_errors(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("usage error:")


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


@pytest.mark.parametrize("argv", [
    ("gap", "--v", "nan"),
    ("restore", "--omega-mhz", "2", "--omega-dp-mhz", "-2.0399", "--z0", "nan"),
    ("excite", "--v", "nan"),
    ("gate", "--l-um", "nan", "--serial", "--grid-points", "4"),
])
def test_nan_input_is_usage_error_not_hang(argv):
    # a subprocess with a timeout, so that a hang fails this test
    src = os.path.dirname(os.path.dirname(dualrail.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "dualrail.cli", *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("usage error:")
