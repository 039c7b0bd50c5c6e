"""Span tracer that times dualrail's layers from outside the package.

Nothing under ``src/`` is modified.  For the length of one traced pass the
tracer replaces module attributes with timing wrappers and puts the
originals back afterwards:

* every public function of ``core``, ``propagator``, ``protocols``, ``gate``
  and ``cli``, in every dualrail module that looks it up;
* the Hamiltonian builders ``hamiltonians.h_*``, as ``propagator`` (and
  ``cli``) look them up; small helpers such as ``pi_time`` stay unwrapped
  and count in their caller's self time;
* ``solve_ivp`` as ``propagator`` looks it up, ``numpy.linalg.eigh`` (every
  exact-engine path ends there) and ``ProcessPoolExecutor`` as ``gate`` and
  ``protocols`` look it up.

Spans (name, start, end, parent, run id) are kept in flat arrays and written
out when the run ends.  A span's self time is its duration minus the part its
children cover.  Pool workers start by fork and are not traced: the tracer
switches itself off in a forked child, so their work appears only as
``pool.wait_s`` in the parent.
"""

from __future__ import annotations

import functools
import json
import os
import types
from array import array
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

import numpy as np

from dualrail import cli, core, gate, hamiltonians, propagator, protocols

TRACED_MODULES = (core, hamiltonians, propagator, protocols, gate, cli)
PROTOCOL_RUNS = (
    "protocols.run_excite_restore",
    "protocols.run_gap_protocol",
    "protocols.run_traditional_restore",
)
UNTRACED_NOTE = (
    "pool workers start by fork and are not traced; "
    "their time appears only as pool.wait_s"
)


class Tracer:
    """In-memory span recorder plus the counters kept at the same boundaries."""

    def __init__(self) -> None:
        self.active = False
        self.run_id = 0
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_run = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.weight_mass_min = 0.0
        self.max_norm_defect = 0.0
        self.gate_tuples: list[tuple] = []
        self._patches: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._stop_in_child)

    def _stop_in_child(self) -> None:
        self.active = False

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def inside(self, layer: str) -> bool:
        """True when an open span of ``layer`` encloses the current call."""
        return any(
            self.layers[self.span_name[frame[0]]] == layer for frame in self._stack
        )

    def inside_name(self, name: str) -> bool:
        """True when an open span called ``name`` encloses the current call."""
        nid = self._ids.get(name)
        return nid is not None and any(
            self.span_name[frame[0]] == nid for frame in self._stack
        )

    def wrap(self, fn, name: str, layer: str, after=None):
        """Timing wrapper around ``fn``; ``after(tracer, result, args, kwargs)``
        runs once the span is closed."""
        nid = self._name_id(name, layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_run.append(tracer.run_id)
            frame = [idx, 0.0]
            stack.append(frame)
            start = perf_counter()
            tracer.span_start.append(start)
            tracer.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.span_end[idx] = end
                tracer.self_s[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(tracer, result, args, kwargs)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        originals = {}
        for mod in TRACED_MODULES:
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                home = obj.__module__
                if not home.startswith("dualrail."):
                    continue
                layer = home.rsplit(".", 1)[1]
                if layer == "hamiltonians" and not attr.startswith("h_"):
                    continue
                originals[(mod, attr)] = (obj, f"{layer}.{attr}", layer)
        for (mod, attr), (obj, name, layer) in originals.items():
            self._patch(mod, attr, self.wrap(obj, name, layer, _AFTER.get(name)))
        self._patch(
            propagator, "solve_ivp",
            self.wrap(propagator.solve_ivp, "scipy.solve_ivp", "ode", _after_ode),
        )
        self._patch(
            np.linalg, "eigh",
            self.wrap(np.linalg.eigh, "numpy.linalg.eigh", "linalg", _after_eigh),
        )
        pool = self._traced_pool()
        for mod in (gate, protocols):
            self._patch(mod, "ProcessPoolExecutor", pool)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def _traced_pool(self):
        def run_map(executor, fn, *iterables, **kwargs):
            return iter(list(ProcessPoolExecutor.map(executor, fn, *iterables, **kwargs)))

        def after_map(tracer, _result, args, _kwargs):
            tracer.counts["pool.tasks"] += len(args[2])

        return type(
            "TracedProcessPoolExecutor",
            (ProcessPoolExecutor,),
            {
                "map": self.wrap(run_map, "pool.map", "pool", after_map),
                "shutdown": self.wrap(
                    ProcessPoolExecutor.shutdown, "pool.shutdown", "pool"
                ),
            },
        )

    # -- results ---------------------------------------------------------

    def _by_name(self):
        ids = np.frombuffer(self.span_name, dtype=np.int32)
        durations = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        inclusive = np.bincount(ids, weights=durations, minlength=n)
        return ids, durations, calls, inclusive

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics; 0 where a layer made no such call."""
        ids, durations, calls, inclusive = self._by_name()

        def count(*names):
            return int(sum(calls[self._ids[n]] for n in names if n in self._ids))

        def seconds(*names):
            return float(sum(inclusive[self._ids[n]] for n in names if n in self._ids))

        def layer_calls(layer):
            return int(sum(c for c, lay in zip(calls, self.layers) if lay == layer))

        run_ids = [self._ids[n] for n in PROTOCOL_RUNS if n in self._ids]
        run_durations = durations[np.isin(ids, run_ids)]
        total = len(self.gate_tuples)
        return {
            "core.calls": layer_calls("core"),
            "core.self_s": self.self_s["core"],
            "core.weight_mass_min": self.weight_mass_min,
            "hamiltonians.calls": layer_calls("hamiltonians"),
            "hamiltonians.self_s": self.self_s["hamiltonians"],
            "propagator.calls": layer_calls("propagator"),
            "propagator.ode_calls": count("scipy.solve_ivp"),
            "propagator.ode_nfev": int(self.counts["ode_nfev"]),
            "propagator.ode_s": seconds("scipy.solve_ivp"),
            "propagator.self_s": self.self_s["propagator"],
            "propagator.max_norm_defect": self.max_norm_defect,
            "protocols.runs": count(*PROTOCOL_RUNS),
            "protocols.self_s": self.self_s["protocols"],
            "protocols.run_ms_p50": (
                1e3 * float(np.median(run_durations)) if run_durations.size else 0.0
            ),
            "protocols.optimizer_evals": int(self.counts["optimizer_evals"]),
            "protocols.optimizer_s": seconds("protocols.optimize_deexcitation"),
            "gate.simulate_calls": count("gate.simulate_gate_input"),
            "gate.propagate_calls": count("gate.propagate_stages"),
            "gate.self_s": self.self_s["gate"],
            "gate.grid_s": seconds("gate.averaged_rotation_error"),
            "gate.useful_ratio": len(set(self.gate_tuples)) / total if total else 0.0,
            "linalg.eigh_calls": count("numpy.linalg.eigh"),
            "linalg.eigh_matrices": int(self.counts["eigh_matrices"]),
            "linalg.eigh_s": seconds("numpy.linalg.eigh"),
            "pool.tasks": int(self.counts["pool.tasks"]),
            "pool.wait_s": self.self_s["pool"],
            "cli.self_s": self.self_s["cli"],
            "cli.grid_calls": int(self.counts["cli.grid_calls"]),
            "cli.report_calls": int(self.counts["cli.report_calls"]),
        }

    def counts_by_run(self, run_ids) -> dict[str, int]:
        """Span counts per name restricted to the given run ids."""
        ids = np.frombuffer(self.span_name, dtype=np.int32)
        runs = np.frombuffer(self.span_run, dtype=np.int32)
        mask = np.isin(runs, list(run_ids))
        calls = np.bincount(ids[mask], minlength=len(self.names))
        return {name: int(calls[i]) for i, name in enumerate(self.names) if calls[i]}

    def write(self, path: str) -> None:
        """Write every recorded span to a compressed ``.npz`` file."""
        start = np.frombuffer(self.span_start)
        origin = float(start[0]) if start.size else 0.0
        np.savez_compressed(
            path,
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            run=np.frombuffer(self.span_run, dtype=np.int32),
            start=start - origin,
            end=np.frombuffer(self.span_end) - origin,
            names=np.array(json.dumps(list(zip(self.names, self.layers)))),
        )


def _after_ode(tracer, sol, _args, _kwargs):
    tracer.counts["ode_nfev"] += sol.nfev
    defect = abs(float(np.linalg.norm(sol.y[:, -1])) - 1.0)
    tracer.max_norm_defect = max(tracer.max_norm_defect, defect)


def _after_eigh(tracer, _result, args, _kwargs):
    shape = np.shape(args[0])
    tracer.counts["eigh_matrices"] += int(np.prod(shape[:-2], dtype=np.int64))


def _after_weight_mass(tracer, mass, _args, _kwargs):
    first = tracer.counts["weight_mass_calls"] == 0
    tracer.counts["weight_mass_calls"] += 1
    tracer.weight_mass_min = mass if first else min(tracer.weight_mass_min, mass)


def _after_run_excite_restore(tracer, _result, _args, _kwargs):
    if tracer.inside_name("protocols.optimize_deexcitation"):
        tracer.counts["optimizer_evals"] += 1


def _simulate_key(input_label, params, v_control=0.0, v_target=0.0,
                  method="dual_rail"):
    return (method, params.n_gap_cycles, v_control, v_target, input_label)


def _after_simulate(tracer, _result, args, kwargs):
    tracer.gate_tuples.append(_simulate_key(*args, **kwargs))


def _after_grid(tracer, _result, _args, _kwargs):
    if tracer.inside("cli"):
        tracer.counts["cli.grid_calls"] += 1


def _after_report(tracer, _result, _args, _kwargs):
    if tracer.inside("cli"):
        tracer.counts["cli.report_calls"] += 1


_AFTER = {
    "core.continuum_weight_mass": _after_weight_mass,
    "protocols.run_excite_restore": _after_run_excite_restore,
    "gate.simulate_gate_input": _after_simulate,
    "gate.averaged_rotation_error": _after_grid,
    "gate.gate_report": _after_report,
}
