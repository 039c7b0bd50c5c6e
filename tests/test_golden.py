"""Stdout of the paper-table commands against files kept in tests/golden.

The files hold what ``dualrail table --which 1`` and ``dualrail gate
--temp-uk 10`` printed when they were added, with the wall time masked.
Stdout must match byte for byte.  The gate's JSON report prints
full-precision floats, which may move in the last bit with the BLAS, so it
is compared number by number at 1e-12 relative; entries below 1e-15 in
magnitude (the roundoff-sized imaginary parts of unit amplitudes) count as
zero.  A change that moves a printed digit updates the file in the same
change and says which bytes moved and why.
"""

import json
import re
from pathlib import Path

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
