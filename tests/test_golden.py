"""Stdout of the paper-table commands against files kept in tests/golden.

The files hold what ``dualrail table --which 1``, ``dualrail table --which
2`` and ``dualrail gate --temp-uk 10`` printed when they were added, with the
wall time masked.  Stdout must match byte for byte.  The gate's JSON report
and its rotation-error grid CSV (kept gzipped) print full-precision floats,
which may move in the last bit with the BLAS, so they are compared number by
number at 1e-12 relative; entries below 1e-15 in magnitude (the
roundoff-sized imaginary parts of unit amplitudes) count as zero.  A change
that moves a printed digit updates the file in the same change and says
which bytes moved and why.

The files written by ``--output`` of ``excite``, of a Maxwell-averaged
``gap`` and of ``sweep`` over each axis and protocol predate the change that
made ``dualrail.cli`` the one module that writes them.  Their headers and
keys must match exactly and their numbers at 1e-12 relative; a phase
column is compared modulo 2*pi, since a restored phase of pi may come back
as +pi or -pi by roundoff.

The ``--help`` text of ``dualrail`` and of each subcommand is kept as
``help_<command>.txt`` and compared byte for byte at an 80-column terminal,
since argparse wraps help to the terminal width.
"""

import gzip
import json
import re
from pathlib import Path

import numpy as np

import pytest

from dualrail.cli import main

GOLDEN = Path(__file__).parent / "golden"
WALL_TIME = re.compile(r"^wall_time_s = .*$", re.MULTILINE)


def _stdout(capsys, *argv) -> bytes:
    assert main(list(argv)) == 0
    return WALL_TIME.sub("wall_time_s = <masked>", capsys.readouterr().out).encode()


def _leaves(node, path=""):
    """Every scalar of a JSON document, keyed by its path."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return {k: v for key, child in items for k, v in _leaves(child, f"{path}/{key}").items()}
    return {path: node}


def test_table1_stdout_is_golden(capsys):
    out = _stdout(capsys, "table", "--which", "1")
    assert out == (GOLDEN / "table_which_1.stdout").read_bytes()


def test_table2_stdout_is_golden(capsys):
    out = _stdout(capsys, "table", "--which", "2")
    assert out == (GOLDEN / "table_which_2.stdout").read_bytes()


def test_gate_grid_csv_is_golden(capsys, tmp_path):
    path = tmp_path / "grid.csv"
    _stdout(capsys, "gate", "--temp-uk", "10", "--grid-output", str(path))
    with gzip.open(GOLDEN / "gate_temp_uk_10_grid.csv.gz", "rt") as fh:
        want_lines = fh.read().splitlines()
    got_lines = path.read_text().splitlines()
    assert got_lines[0] == want_lines[0]
    got = np.loadtxt(got_lines[1:], delimiter=",")
    want = np.loadtxt(want_lines[1:], delimiter=",")
    assert got.shape == want.shape == (100 * 100, 3)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def test_gate_stdout_and_report_are_golden(capsys, tmp_path):
    path = tmp_path / "gate.json"
    out = _stdout(capsys, "gate", "--temp-uk", "10", "--output", str(path))
    assert out == (GOLDEN / "gate_temp_uk_10.stdout").read_bytes()
    got = _leaves(json.loads(path.read_text()))
    want = _leaves(json.loads((GOLDEN / "gate_temp_uk_10.json").read_text()))
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, float):
            assert got[key] == pytest.approx(value, rel=1e-12, abs=1e-15), key
        else:
            assert got[key] == value, key


# Written file in tests/golden (gzipped when large) and the command that writes it.
GOLDEN_OUTPUTS = {
    "excite_v_0.05.csv.gz": ("excite", "--v", "0.05"),
    "gap_temp_uk_10.txt": ("gap", "--temp-uk", "10"),
    "sweep_gap_v.csv": ("sweep", "--protocol", "gap", "--axis", "v",
                        "--start", "0.01", "--stop", "0.1", "--num", "5"),
    "sweep_traditional_z0.csv": ("sweep", "--protocol", "traditional", "--axis", "z0",
                                 "--start", "0", "--stop", "8", "--num", "5"),
    "sweep_restore_omega.csv": ("sweep", "--protocol", "restore", "--axis", "omega",
                                "--start", "1.5", "--stop", "2.5", "--num", "5"),
    "sweep_gap_temp.csv": ("sweep", "--protocol", "gap", "--axis", "temp",
                           "--start", "10", "--stop", "200", "--num", "3"),
    "sweep_phase_v.csv": ("sweep", "--protocol", "phase", "--axis", "v",
                          "--start", "0.01", "--stop", "0.1", "--num", "5"),
}


@pytest.mark.parametrize("name, argv", GOLDEN_OUTPUTS.items(), ids=list(GOLDEN_OUTPUTS))
def test_written_output_is_golden(capsys, tmp_path, name, argv):
    path = tmp_path / "out"
    _stdout(capsys, *argv, "--output", str(path))
    opener = gzip.open if name.endswith(".gz") else open
    with opener(GOLDEN / name, "rt") as fh:
        want_lines = fh.read().splitlines()
    got_lines = path.read_text().splitlines()
    if name.endswith(".txt"):  # "key = value" lines
        (got_keys, got), (want_keys, want) = (
            zip(*(line.split(" = ") for line in lines)) for lines in (got_lines, want_lines)
        )
        assert got_keys == want_keys
        np.testing.assert_allclose(np.array(got, float), np.array(want, float),
                                   rtol=1e-12, atol=1e-15)
        return
    header = want_lines[0].split(",")
    assert got_lines[0].split(",") == header
    got = np.loadtxt(got_lines[1:], delimiter=",", ndmin=2)
    want = np.loadtxt(want_lines[1:], delimiter=",", ndmin=2)
    assert got.shape == want.shape
    phase = ["phase" in column for column in header]
    got[:, phase] = want[:, phase] + np.angle(np.exp(1j * (got - want)[:, phase]))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


HELP_COMMANDS = ("top", "excite", "restore", "gap", "optimize", "gate", "sweep", "table")


@pytest.mark.parametrize("command", HELP_COMMANDS)
def test_help_is_golden(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command == "top" else [command, "--help"]
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"help_{command}.txt").read_bytes()
