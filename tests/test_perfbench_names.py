"""The benchmark in perfbench/ calls and patches dualrail names; each must exist.

perfbench is read as source, not imported: an AST scan collects every
``cli.|core.|gate.|protocols.|propagator.|hamiltonians.<name>`` lookup in
``perfbench/*.py`` and every ``self._patch(<module>, "<name>", ...)`` target,
including those made in a ``for <module> in (...)`` loop.  A change that
deletes or renames one of them would make every benchmark run fail.

perfbench also reads spans by name, as strings: a span that no traced
function opens any more reads 0 without failing the run.  Each such name
must name a function the tracer wraps, or be on the known-dead list.
"""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import dualrail

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("cli", "core", "gate", "protocols", "propagator", "hamiltonians")


def _patch_targets(call: ast.Call, loops: dict[str, list[str]]) -> list[tuple[str, str]]:
    """(module, name) pairs that a ``_patch(owner, "name", ...)`` call replaces."""
    if not (isinstance(call.func, ast.Attribute) and call.func.attr == "_patch"
            and len(call.args) >= 2 and isinstance(call.args[0], ast.Name)
            and isinstance(call.args[1], ast.Constant)):
        return []
    owner = call.args[0].id
    owners = loops.get(owner, [owner] if owner in MODULES else [])
    return [(module, call.args[1].value) for module in owners]


def perfbench_names() -> set[tuple[str, str]]:
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        # for <variable> in (<module>, ...): the patch targets of each module
        loops = {
            node.target.id: [elt.id for elt in node.iter.elts]
            for node in ast.walk(tree)
            if isinstance(node, ast.For) and isinstance(node.target, ast.Name)
            and isinstance(node.iter, ast.Tuple)
            and all(isinstance(e, ast.Name) and e.id in MODULES for e in node.iter.elts)
        }
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in MODULES):
                names.add((node.value.id, node.attr))
            elif isinstance(node, ast.Call):
                names.update(_patch_targets(node, loops))
    return names


def test_every_name_the_benchmark_uses_resolves():
    names = perfbench_names()
    # the scan sees both lookups and loop-patched targets
    assert ("protocols", "gap_runner") in names
    assert ("gate", "ProcessPoolExecutor") in names
    assert ("protocols", "ProcessPoolExecutor") in names
    missing = sorted(
        f"{module}.{name}" for module, name in names
        if not hasattr(importlib.import_module(f"dualrail.{module}"), name)
    )
    assert not missing, f"perfbench/ uses names dualrail no longer has: {missing}"


# Span names perfbench reads that no traced function opens: each metric or
# note that reads them is 0 on working code.  The benchmark's next change
# (counting the engine's own work) removes them; shrink this list with it.
KNOWN_DEAD_SPANS = {
    "gate.simulate_gate_input",  # deleted from gate
    "propagator.run_sequence",  # deleted from propagator
    "gate.propagate_stages",  # lives in dualrail.engine: its spans are engine.propagate_stages
}


# The calls through which perfbench reads a span by name, as written there.
SPAN_READERS = {"count", "seconds", "tracer.inside_name", "counts.get"}


def _strings(nodes) -> list[str]:
    return [n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def span_names_read() -> set[str]:
    """Span names perfbench reads: the ``_AFTER`` keys and ``PROTOCOL_RUNS``
    of tracing.py, and the arguments of each :data:`SPAN_READERS` call in
    tracing.py and workloads.py."""
    names = set()
    for filename in ("tracing.py", "workloads.py"):
        tree = ast.parse((PERFBENCH / filename).read_text(), filename=filename)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_AFTER":
                names.update(_strings(node.value.keys))
            elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "PROTOCOL_RUNS":
                names.update(_strings(node.value.elts))
            elif isinstance(node, ast.Call) and ast.unparse(node.func) in SPAN_READERS:
                names.update(_strings(node.args))
    return names


def traced_modules() -> list[types.ModuleType]:
    """The modules of ``TRACED_MODULES`` in perfbench/tracing.py."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED_MODULES":
            return [importlib.import_module(f"dualrail.{e.id}") for e in node.value.elts]
    raise AssertionError("perfbench/tracing.py defines no TRACED_MODULES")


def opens_span(name: str, modules) -> bool:
    """Whether the tracer wraps a function it names ``name``: some traced
    module binds a public function ``attr`` whose home is ``dualrail.<layer>``
    (of hamiltonians, only the h_* builders)."""
    layer, _, attr = name.partition(".")
    return not attr.startswith("_") and (layer != "hamiltonians" or attr.startswith("h_")) and any(
        isinstance(getattr(m, attr, None), types.FunctionType)
        and getattr(m, attr).__module__ == f"dualrail.{layer}" for m in modules)


def test_every_span_name_the_benchmark_reads_is_opened():
    names = span_names_read()
    # the scan sees each kind of reader
    assert {"core.continuum_weight_mass", "protocols.run_gap_protocol",
            "protocols.optimize_deexcitation", "gate.averaged_rotation_error",
            "propagator.run_sequence", "numpy.linalg.eigh"} <= names
    # numpy's and scipy's spans are wrapped under their own names
    layers = {m.name for m in pkgutil.iter_modules(dualrail.__path__)}
    modules = traced_modules()
    dead = {n for n in names if n.partition(".")[0] in layers and not opens_span(n, modules)}
    assert dead == KNOWN_DEAD_SPANS, (
        f"perfbench reads spans no traced function opens: {sorted(dead - KNOWN_DEAD_SPANS)}; "
        f"listed dead but opened: {sorted(KNOWN_DEAD_SPANS - dead)}")
