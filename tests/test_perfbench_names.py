"""The benchmark in perfbench/ calls and patches dualrail names; each must exist.

perfbench is read as source, not imported: an AST scan collects every
``cli.|core.|gate.|protocols.|propagator.|hamiltonians.<name>`` lookup in
``perfbench/*.py`` and every ``self._patch(<module>, "<name>", ...)`` target,
including those made in a ``for <module> in (...)`` loop.  A change that
deletes or renames one of them would make every benchmark run fail.
"""

import ast
import importlib
from pathlib import Path

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
