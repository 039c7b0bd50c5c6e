"""Every function in ``src/dualrail`` is run by some ``dualrail`` command.

A fresh interpreter installs a profile hook in every thread before it
imports the command line, runs the command list below through
``cli.main`` and reports which code objects it entered.  Each ``def`` in
the package must be among them, unless the allowlist names it with the
reason it is kept; an allowlisted name must still exist and still be
unreached.  A test-only helper belongs in the tests (``oracle.py``), not
in the package.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import dualrail

PACKAGE = Path(dualrail.__file__).parent

# Whole modules that no command imports.
UNREACHED_MODULES = {
    "dualrail.propagator": "the tests' DOP853 oracle; perfbench/tracing.py imports it",
    "dualrail.hamiltonians": "the oracle's lab-frame Hamiltonians; perfbench/tracing.py imports it",
}

# Functions no command enters, by module and dotted name within it.
UNREACHED = {
    "gate.__getattr__": "resolves ProcessPoolExecutor, which perfbench patches",
    "protocols.__getattr__": "resolves ProcessPoolExecutor, which perfbench patches",
    "core.InteractionTable.__reduce__": "pickling, tested",
    "engine._hash_once.__getstate__": "pickling, tested",
    "engine.ComplexState.phase": "state API that the tests and the oracle read",
    "engine.ComplexState.norm": "state API that the tests and the oracle read",
    "engine.TwoAtomSpace.index": "state API that the tests and the oracle read",
}
# A grid's blocks start helper threads only where more than one CPU is usable.
ONE_CPU_UNREACHED = {
    "gate._run_shares.helper": "the grid runs in the calling thread alone",
}

PRESET = ("[p]\nmass_kg = 1.44316e-25\ntau_us = 787.0\nlambda_lower_nm = 795.0\n"
          "lambda_upper_nm = 474.0\nlambda_ir_nm = 2272.0\n")

# (argv, exit code); {d} is a scratch directory.  Grids of 16 points make
# two dual-rail row blocks, so a second CPU runs one on a helper thread.
COMMANDS = [
    (["table", "--which", "1"], 0),
    (["table", "--which", "2", "--grid-points", "16"], 0),
    (["gate", "--grid-points", "16", "--output", "{d}/gate.json",
      "--grid-output", "{d}/grid.csv"], 0),
    (["gap", "--temp-uk", "10", "--grid-points", "21", "--output", "{d}/gap.txt"], 0),
    (["restore", "--v", "0.05", "--output", "{d}/restore.csv"], 0),
    (["optimize", "--omega-mhz", "2", "--sign", "-1", "--output", "{d}/optimize.json"], 0),
    (["excite", "--v", "0.05", "--samples", "16", "--output", "{d}/excite.csv"], 0),
    (["sweep", "--axis", "v", "--protocol", "gap", "--start", "-0.2", "--stop", "0.2",
      "--num", "5", "--output", "{d}/sweep_v.csv"], 0),
    (["sweep", "--axis", "z0", "--protocol", "traditional", "--start", "0", "--stop", "1",
      "--num", "3"], 0),
    (["sweep", "--axis", "omega", "--start", "1.8", "--stop", "2.2", "--num", "3"], 0),
    (["sweep", "--axis", "temp", "--protocol", "gap", "--start", "5", "--stop", "10",
      "--num", "2"], 0),
    (["sweep", "--axis", "v", "--protocol", "phase", "--start", "0.01", "--stop", "0.1",
      "--num", "3", "--output", "{d}/phase.csv"], 0),
    (["--help"], 0),
    (["gap", "--v", "0", "--config", "{d}/good.ini", "--preset", "p"], 0),
    (["gap", "--v", "0", "--config", "{d}/bad.ini", "--preset", "p"], 2),
]

# The child: argv[1] is the scratch directory, argv[2] the commands as JSON.
CHILD = r"""
import contextlib, io, json, sys, threading

entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(profile)
threading.setprofile(profile)
import dualrail.cli
from dualrail import engine

codes = []
with engine.counting() as work:
    for argv in json.loads(sys.argv[2]):
        argv = [a.replace("{d}", sys.argv[1]) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            codes.append(dualrail.cli.main(argv))
sys.setprofile(None)
threading.setprofile(None)
from dualrail import gate
print(json.dumps({
    "entered": sorted({(c.co_filename, c.co_firstlineno) for c in entered}),
    "codes": codes,
    "engine_calls": work.calls,
    "helpers": gate._workers(2) > 1,
}))
"""


def _defs() -> dict[str, tuple[str, int]]:
    """Every def in the package, keyed "module.Outer.name", with the
    (file, first line) its code object carries: the first decorator's
    line if it has one."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = child.decorator_list[0] if child.decorator_list else child
                    found[name] = (path, first.lineno)
                visit(child, name, path)
            else:
                visit(child, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, str(path))
    return found


def _run_child(tmp_path) -> dict:
    (tmp_path / "good.ini").write_text(PRESET + "c6_95_95 = -20.0\nl_um = 7.0\n")
    (tmp_path / "bad.ini").write_text(PRESET.replace("787.0", "nan"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p))
    argvs = json.dumps([argv for argv, _ in COMMANDS])
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path), argvs],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _faults(defs: dict, entered: set, allowed: set) -> dict[str, list[str]]:
    """What breaks the rule: allowlisted names that no def has, allowlisted
    defs that a command entered, and other defs that none entered."""
    return {
        "allowlisted, gone": sorted(allowed - set(defs)),
        "allowlisted, reached": sorted(n for n in allowed & set(defs) if defs[n] in entered),
        "unreached": sorted(n for n, key in defs.items()
                            if key not in entered and n not in allowed),
    }


def test_the_reach_rule_names_each_kind_of_fault():
    defs = {"m.run": ("m.py", 1), "m.kept": ("m.py", 5), "m.dead": ("m.py", 9)}
    entered = {("m.py", 1), ("m.py", 5)}
    assert _faults(defs, entered, {"m.gone", "m.kept"}) == {
        "allowlisted, gone": ["m.gone"],
        "allowlisted, reached": ["m.kept"],
        "unreached": ["m.dead"],
    }
    assert _faults(defs, entered, {"m.dead"}) == {
        "allowlisted, gone": [], "allowlisted, reached": [], "unreached": []}


def test_every_function_in_the_package_is_run_by_a_command(tmp_path):
    report = _run_child(tmp_path)
    assert report["codes"] == [code for _, code in COMMANDS]
    assert report["engine_calls"] > 0  # the counting window recorded the commands
    defs = _defs()
    allowed = set(UNREACHED) | (set() if report["helpers"] else set(ONE_CPU_UNREACHED))
    for module in UNREACHED_MODULES:
        stem = module.removeprefix("dualrail.")
        assert (PACKAGE / f"{stem}.py").exists(), module
        allowed |= {name for name in defs if name.split(".")[0] == stem}
    entered = {tuple(key) for key in report["entered"]}
    assert _faults(defs, entered, allowed) == {
        "allowlisted, gone": [], "allowlisted, reached": [], "unreached": []}
    # the one-CPU exception names a def that exists on every host
    assert set(ONE_CPU_UNREACHED) <= set(defs)
