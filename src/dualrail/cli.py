"""Command-line front end: protocol runs, sweeps, gates, benchmark tables.

The one module that formats or writes output; the others only compute.

Exit codes: 0 success, 2 usage error, 3 numerical failure.  A NumPy
overflow, invalid operation or division by zero anywhere in a command is a
numerical failure, so no command prints a NaN and exits 0; so is running
out of memory.  An output path no run could write is refused before any
computing, and any other operating-system error is a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import replace
from functools import partial

import numpy as np

from dualrail import core, gate, protocols
from dualrail.core import (
    SimulationParams,
    get_config,
    mhz_to_rad_per_us,
    rad_per_us_to_mhz,
)
from dualrail.engine import (
    DUAL_RAIL_BASIS, OPTICAL_DUAL, OPTICAL_SINGLE, SINGLE_RAIL_BASIS, AtomDrive,
    ComplexState, GateStage, dual_rail_rotation, propagate_atom,
)

JSON_SCHEMA_VERSION = 1

# The paper's operating point: Omega/2pi for every excitation, target and
# infrared drive, and the deexcitation amplitude Omega_dp/2pi.  Both tables
# are computed here, and every command's amplitude defaults read it.
OMEGA_MHZ = 2.0
OMEGA_DP_MHZ = -2.0339

# Reference benchmark rows bundled for the `table` subcommand.  Row tuples:
# (method, omega_mhz, omega_dp_mhz, n_cycles or wait_us, temp_uk, population,
#  mean |phase|).  The traditional baseline drives one rail at sqrt(2)*Omega.
RESTORATION_BENCHMARK = (
    ("dual_rail", OMEGA_MHZ, OMEGA_DP_MHZ, 1, 10.0, 0.9999797, math.pi),
    ("traditional", OMEGA_MHZ * math.sqrt(2.0), None, math.sqrt(2.0) / 2.0, 10.0, 0.9999955, 3.024902),
    ("dual_rail", OMEGA_MHZ, OMEGA_DP_MHZ, 1, 200.0, 0.9968510, math.pi),
    ("traditional", OMEGA_MHZ * math.sqrt(2.0), None, math.sqrt(2.0) / 2.0, 200.0, 0.9984545, 2.620949),
    ("dual_rail", OMEGA_MHZ, OMEGA_DP_MHZ, 2, 200.0, 0.9922810, math.pi),
    ("traditional", OMEGA_MHZ * math.sqrt(2.0), None, math.sqrt(2.0), 200.0, 0.9961266, 2.208995),
)

# (method, temp_uk, n_cycles, duration_us, averaged rotation error).
GATE_BENCHMARK = (
    ("dual_rail", 10.0, 1, 1.405, 2.56e-4),
    ("traditional", 10.0, 1, 1.061, 4.69e-3),
    ("dual_rail", 200.0, 1, 1.405, 1.99e-3),
    ("traditional", 200.0, 1, 1.061, 8.06e-2),
    ("dual_rail", 10.0, 2, 2.111, 6.64e-4),
    ("traditional", 10.0, 2, 1.768, 1.41e-2),
    ("dual_rail", 200.0, 2, 2.111, 5.58e-3),
    ("traditional", 200.0, 2, 1.768, 2.03e-1),
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", default=core.DEFAULT_CONFIG_NAME,
                        help="atom/laser preset name")
    parser.add_argument("--config", help="INI file with additional presets")
    parser.add_argument("--output", help="output file path")


def _add_velocity_or_temperature(parser: argparse.ArgumentParser) -> None:
    # The Maxwell average runs over its own velocity grid, so a velocity
    # given with a temperature would be dropped: argparse rejects the pair.
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--v", type=float, default=0.0, help="velocity m/s")
    group.add_argument("--temp-uk", type=float, default=None,
                       help="Maxwell-average over this temperature")


def _write_json(path: str, payload: dict) -> None:
    payload = {"schema": JSON_SCHEMA_VERSION, **payload}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    """Write ``rows`` of numbers under ``header``, each field in ``.11e``
    (12 significant digits)."""
    line = ",".join(["{:.11e}"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line.format(*row) for row in rows)


def _write_grid_csv(path: str, velocities: np.ndarray, errors: np.ndarray) -> None:
    """Write a (v_c, v_t) error grid as :func:`_write_csv` writes its rows,
    (v_c, v_t, error) in ``.11e``, formatting each velocity once rather
    than once per row."""
    v = [f"{x:.11e}" for x in velocities.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("v_c_mps,v_t_mps,e_ro\n")
        for v_c, row in zip(v, errors.tolist()):
            fh.writelines(f"{v_c},{v_t},{e:.11e}\n" for v_t, e in zip(v, row))


def _phase(amp: complex) -> float:
    """Phase of an amplitude; a roundoff-sized one has none and reads 0,
    the value ``np.angle`` gives for an exact zero."""
    return float(np.angle(amp)) if abs(amp) >= 1e-12 else 0.0


def cmd_excite(args, cfg) -> int:
    params = SimulationParams(omega=mhz_to_rad_per_us(args.omega_mhz),
                              z0_um=args.z0, v_mps=args.v)
    if not 0.0 <= args.t < math.inf:
        raise UsageError("--t must be a nonnegative duration")
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    # The cos/sin drive is the two-rail drive at sqrt(2)*Omega in the
    # rotated basis (r-, r+, 1); its amplitudes are rotated back below.
    levels, amp, couplings = {
        "four-field": (DUAL_RAIL_BASIS, math.sqrt(2.0) * params.omega, OPTICAL_DUAL),
        "dual-rail": (DUAL_RAIL_BASIS, params.omega, OPTICAL_DUAL),
        "single-rail": (SINGLE_RAIL_BASIS, params.omega, OPTICAL_SINGLE),
    }[args.drive]
    drive = AtomDrive(amp, cfg.wavevectors.k_excite, couplings)
    ts = np.linspace(0.0, args.t, args.samples + 1) if args.output else np.array([0.0, args.t])
    # One stage sampled at every time from the start: one eigendecomposition,
    # and the final state does not depend on --samples.
    sampled, _ = propagate_atom(
        [GateStage(0.0, ts[1:], control=drive)], params.v_mps, params.z0_um
    )
    columns = [sampled.basis.index(level) for level in levels]  # in `levels` order
    amps = [ComplexState.from_label(levels, "1").amplitudes, *sampled.amplitudes[:, columns]]
    if args.drive == "four-field":
        rotate_back = dual_rail_rotation().conj().T
        amps = [rotate_back @ a for a in amps]
    if args.output:
        header = ["t_us"] + [f"pop_{l}" for l in levels] + [f"phase_{l}" for l in levels]
        _write_csv(args.output, header, ([t, *(abs(x) ** 2 for x in a), *(_phase(x) for x in a)]
                                         for t, a in zip(ts, amps)))
    final = ComplexState(levels, amps[-1])
    print(f"population_1 = {final.population('1'):.6e}")
    print(f"phase_1_rad = {_phase(final.amplitude('1')):.6e}")
    return 0


def _print_outcome(out: protocols.ProtocolOutcome) -> None:
    print(f"population_1 = {out.ground_population:.6e}")
    print(f"population_error = {out.error:.6e}")
    print(f"phase_1_rad = {out.ground_phase:.6e}")
    print(f"r3_leak = {out.r3_leak:.6e}")
    print(f"rydberg_time_us = {out.rydberg_time_us:.6e}")


def _summary(avg: protocols.AveragedOutcome) -> str:
    """Key/value text report of a Maxwell-averaged protocol outcome."""
    return (
        f"mean_population = {avg.ground_population:.12g}\n"
        f"mean_abs_phase_rad = {avg.mean_abs_phase:.12g}\n"
        f"mean_r3_leak = {avg.r3_leak:.12g}\n"
        f"mean_rydberg_time_us = {avg.rydberg_time_us:.12g}\n"
        f"weight_mass = {avg.weight_mass:.12g}\n"
        f"grid_points = {avg.n_points}\n"
    )


# Columns of a protocol run's CSV row; a swept column, if any, leads.
OUTCOME_HEADER = ["v_mps", "z0_um", "pop_error", "phase_rad", "r3_leak", "rydberg_time_us"]


def _outcome_fields(out: protocols.ProtocolOutcome) -> list:
    """The last four columns of :data:`OUTCOME_HEADER`, scalars or arrays."""
    return [out.error, out.ground_phase, out.r3_leak, out.rydberg_time_us]


def _run_or_average(args, cfg, runner) -> int:
    """One ``runner`` call at ``--v``, or its Maxwell average at ``--temp-uk``."""
    if args.temp_uk is None:
        out = runner(args.v)
        _print_outcome(out)
        if args.output:
            _write_csv(args.output, OUTCOME_HEADER, [[args.v, args.z0, *_outcome_fields(out)]])
        return 0
    avg = protocols.maxwell_average(
        runner, args.temp_uk, cfg.species,
        velocities=core.maxwell_grid(args.temp_uk, cfg.species, args.grid_points),
    )
    text = _summary(avg)
    print(text, end="")
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    return 0


def _runner(name: str, params: SimulationParams, cfg):
    """Protocol ``name`` (restore, gap or traditional) at ``params``, as a
    function of velocity."""
    if name == "gap":
        return partial(protocols.gap_runner, params, cfg.wavevectors)
    run = protocols.restore_runner if name == "restore" else protocols.traditional_runner
    return partial(run, params, cfg.wavevectors.k_excite)


def cmd_restore(args, cfg) -> int:
    k = cfg.wavevectors.k_excite
    omega = mhz_to_rad_per_us(args.omega_mhz)
    if args.omega_dp_mhz is not None:
        omega_dp = mhz_to_rad_per_us(args.omega_dp_mhz)
    else:
        omega_dp = protocols.optimize_deexcitation(omega, k, sign=args.sign)
        print(f"optimized_omega_dp_mhz = {rad_per_us_to_mhz(omega_dp):.6f}")
    params = SimulationParams(omega=omega, omega_dp=omega_dp,
                              z0_um=args.z0, v_mps=args.v)
    return _run_or_average(args, cfg, _runner("restore", params, cfg))


def cmd_gap(args, cfg) -> int:
    params = SimulationParams.from_mhz(
        omega_mhz=args.omega_mhz, omega_dp_mhz=args.omega_dp_mhz,
        omega_if_mhz=args.omega_if_mhz, n_gap_cycles=args.n_cycles,
        z0_um=args.z0, v_mps=args.v,
    )
    return _run_or_average(args, cfg, _runner("gap", params, cfg))


def cmd_optimize(args, cfg) -> int:
    k = cfg.wavevectors.k_excite
    omega = mhz_to_rad_per_us(args.omega_mhz)
    omega_dp = protocols.optimize_deexcitation(
        omega, k, v_ref=args.v_ref, sign=args.sign
    )
    params = SimulationParams(omega=omega, omega_dp=omega_dp, v_mps=args.v_ref)
    residual = (
        protocols.run_excite_restore(params, k).error if args.v_ref else 0.0
    )
    dp_mhz = rad_per_us_to_mhz(omega_dp)
    print(f"omega_dp_mhz = {dp_mhz:.6f}")
    print(f"ratio_dp_over_omega = {dp_mhz / args.omega_mhz:.6f}")
    print(f"residual_error = {residual:.6e}")
    if args.output:
        _write_json(args.output, {
            "omega_mhz": args.omega_mhz,
            "omega_dp_mhz": dp_mhz,
            "ratio": dp_mhz / args.omega_mhz,
            "residual_error": residual,
            "v_ref_mps": args.v_ref,
        })
    return 0


def _gate_params(args, cfg) -> gate.GateParams:
    """Gate parameters of ``dualrail gate`` run with ``args``."""
    if args.l_um is not None and cfg.interactions is not None:
        cfg = replace(
            cfg,
            interactions=replace(cfg.interactions, separation_um=args.l_um),
        )
    return gate.GateParams(
        omega=mhz_to_rad_per_us(args.omega_mhz),
        omega_dp=mhz_to_rad_per_us(args.omega_dp_mhz),
        omega_t=mhz_to_rad_per_us(args.omega_t_mhz),
        omega_if=mhz_to_rad_per_us(args.omega_if_mhz),
        n_gap_cycles=args.n_cycles,
        config=cfg,
    )


def _report_grid_mass(n_points: int, temp_uk: float, mass: float) -> None:
    """Name on stderr a gate grid whose Maxwell mass misses 1; its average stands."""
    if abs(mass - 1.0) > core.WEIGHT_MASS_TOL:
        print(f"warning: the {n_points}-point velocity grid carries {mass:.3g} of the "
              f"Maxwell weight at {temp_uk:g} uK, not 1", file=sys.stderr)


def cmd_gate(args, cfg) -> int:
    params = _gate_params(args, cfg)
    started = time.perf_counter()
    grid = gate.averaged_rotation_error(params, args.temp_uk, args.method, n_grid=args.grid_points)
    _report_grid_mass(grid.velocities.size, args.temp_uk, grid.weight_mass)
    report = gate.gate_report(params, 0.0, 0.0, args.method)
    fidelity = 1.0 - grid.averaged - report.decay_error
    wall = time.perf_counter() - started
    print(f"method = {args.method}")
    print(f"fidelity = {fidelity:.6f}")
    print(f"rotation_error_avg = {grid.averaged:.6e}")
    print(f"decay_error = {report.decay_error:.6e}")
    print(f"duration_us = {report.duration_us:.6f}")
    print(f"wall_time_s = {wall:.2f}")
    if args.output:
        _write_json(args.output, {
            "parameters": {
                "omega_mhz": args.omega_mhz,
                "omega_dp_mhz": args.omega_dp_mhz,
                "omega_t_mhz": args.omega_t_mhz,
                "omega_if_mhz": args.omega_if_mhz,
                "n_gap_cycles": args.n_cycles,
                "temperature_uk": args.temp_uk,
                "preset": cfg.name,
            },
            "grid_points": args.grid_points,
            "fidelity": fidelity,
            "rotation_error_avg": grid.averaged,
            "method": report.method,
            "amplitudes": {label: [z.real, z.imag] for label, z in
                           (("a_01", report.a), ("b_10", report.b), ("c_11", report.c))},
            "rotation_error": report.rotation_error,
            "decay_error": report.decay_error,
            "duration_us": report.duration_us,
            "rydberg_times_us": report.rydberg_times_us,
            "v_control_mps": report.v_control,
            "v_target_mps": report.v_target,
        })
    if args.grid_output:
        _write_grid_csv(args.grid_output, grid.velocities, grid.errors)
    return 0


def cmd_sweep(args, cfg) -> int:
    k = cfg.wavevectors.k_excite
    if args.num < 2:
        raise UsageError("sweep needs at least two points")
    # An infinite bound or span would fail inside linspace, as a numerical error.
    if not all(map(math.isfinite, (args.start, args.stop, args.stop - args.start))):
        raise UsageError("sweep bounds must be finite")
    axis = np.linspace(args.start, args.stop, args.num)
    if args.protocol == "phase":
        if args.axis != "v":
            raise UsageError("the phase sweep is defined over the v axis")
        omega = mhz_to_rad_per_us(args.omega_mhz)
        fit = protocols.phase_linearity(omega, k, axis)
        print(f"slope_ratio = {fit.slope_ratio:.6f}")
        print(f"residual = {fit.residual:.3e}")
        if args.output:
            _write_csv(args.output, ["v_mps", "phi_rad", "ratio"],
                       ((v, ratio * 2.0 * math.pi * k * v / omega, ratio)
                        for v, ratio in zip(axis, fit.ratios)))
        return 0

    base = SimulationParams.from_mhz(
        omega_mhz=args.omega_mhz, omega_dp_mhz=args.omega_dp_mhz,
        omega_if_mhz=args.omega_if_mhz, n_gap_cycles=args.n_cycles,
        z0_um=args.z0, v_mps=args.v,
        t_wait_us=args.t_wait if args.protocol == "traditional" else 0.0,
    )

    # Float rows ending in the four outcome columns, error first.
    header = OUTCOME_HEADER
    if args.axis in ("v", "z0"):  # one batched run over the whole axis
        p = replace(base, **{"v_mps" if args.axis == "v" else "z0_um": axis})
        out = _runner(args.protocol, p, cfg)(p.v_mps)
        columns = np.broadcast_arrays(p.v_mps, p.z0_um, *_outcome_fields(out))
        rows = np.column_stack(columns).tolist()
    elif args.axis == "omega":
        header = ["omega_mhz", *header]
        rows = []
        for x in axis:
            p = replace(base, omega=mhz_to_rad_per_us(float(x)))
            out = _runner(args.protocol, p, cfg)(p.v_mps)
            rows.append([x, p.v_mps, p.z0_um, *_outcome_fields(out)])
    else:  # temp axis: Maxwell-average at each temperature; no one v_mps applies
        header = ["temp_uk", "v_mps", "z0_um", "pop_error", "mean_abs_phase_rad",
                  "r3_leak", "rydberg_time_us"]
        rows = []
        for x in axis:
            avg = protocols.maxwell_average(_runner(args.protocol, base, cfg),
                                            float(x), cfg.species)
            rows.append([x, math.nan, base.z0_um, avg.error, avg.mean_abs_phase,
                         avg.r3_leak, avg.rydberg_time_us])
    if args.output:
        _write_csv(args.output, header, rows)
    print(f"points = {len(rows)}")
    print(f"max_error = {max(row[-4] for row in rows):.6e}")
    return 0


def cmd_table(args, cfg) -> int:
    table = RESTORATION_BENCHMARK if args.which == 1 else GATE_BENCHMARK
    if args.rows and not all(1 <= i <= len(table) for i in args.rows):
        raise UsageError(f"table {args.which} has rows 1 to {len(table)}")
    if args.output:
        raise UsageError("table prints to stdout and writes no --output file")
    rows = [(i, row) for i, row in enumerate(table, start=1)
            if not args.rows or i in args.rows]
    if args.which == 1:
        if args.grid_points is not None:
            raise UsageError("--grid-points sets table 2's velocity grid; "
                             "table 1 averages over each row's Maxwell grid")
        _run_table1(cfg, rows)
    else:
        _run_table2(cfg, rows, 100 if args.grid_points is None else args.grid_points)
    return 0


def _run_table1(cfg, rows) -> None:
    """Maxwell-averaged population and mean |phase| of each (number, row)."""
    print("row  method        T_uK   computed_pop  reference_pop  rel_dev    "
          "computed_|phase|  reference_|phase|")
    for i, (method, omega_mhz, omega_dp_mhz, wait_spec, temp, ref_pop, ref_phase) in rows:
        if method == "dual_rail":
            params = SimulationParams.from_mhz(
                omega_mhz=omega_mhz, omega_dp_mhz=omega_dp_mhz,
                omega_if_mhz=omega_mhz, n_gap_cycles=wait_spec,
            )
        else:
            params = SimulationParams.from_mhz(omega_mhz=omega_mhz, t_wait_us=wait_spec)
        runner = _runner("gap" if method == "dual_rail" else method, params, cfg)
        avg = protocols.maxwell_average(runner, temp, cfg.species)
        pop, phase = avg.ground_population, avg.mean_abs_phase
        print(
            f"{i:<4d} {method:<13s} {temp:<6g} {pop:.7f}     {ref_pop:.7f}      "
            f"{pop / ref_pop - 1:+.2e}  {phase:.6f}          {ref_phase:.6f}"
        )


def _run_table2(cfg, rows, n_grid) -> None:
    """Duration and averaged rotation error of each (number, row): the gate
    of ``dualrail gate`` at its defaults with the row's cycle count."""
    print("row  method        T_uK   n  duration  ref_dur  e_ro_avg    "
          "ref_e_ro    rel_dev")
    # Rows that differ only in temperature reweight one grid by one rule per
    # temperature; one call computes every cycle count of a method.
    params = _gate_params(build_parser().parse_args(["gate"]), cfg)
    velocities = gate.velocity_grid(n_grid)
    rules = {temp: core.maxwell_rule(velocities, temp, cfg.species)
             for temp in dict.fromkeys(row[1] for _, row in rows)}
    cycle_counts = {}
    for _, (method, _, n_cycles, _, _) in rows:
        cycle_counts.setdefault(method, {})[n_cycles] = None  # an ordered set
    grids = {}
    for method, counts in cycle_counts.items():
        errors = gate.rotation_error_grids(params, method, list(counts), n_grid)
        for n_cycles, grid in zip(counts, errors):
            duration = gate.gate_duration(replace(params, n_gap_cycles=n_cycles), method)
            grids[method, n_cycles] = duration, grid
    for i, (method, temp, n_cycles, ref_dur, ref_ero) in rows:
        duration, errors = grids[method, n_cycles]
        ero = rules[temp].mean(errors)
        print(
            f"{i:<4d} {method:<13s} {temp:<6g} {n_cycles}  {duration:.4f}    "
            f"{ref_dur:.3f}    {ero:.4e}  {ref_ero:.2e}  {ero / ref_ero - 1:+.2e}"
        )
    for temp, rule in rules.items():
        _report_grid_mass(n_grid, temp, rule.mass)


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualrail",
        description="Doppler-resilient ground-Rydberg transition simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("excite", help="propagate a single excitation drive")
    _add_common(p)
    p.add_argument("--drive", choices=("four-field", "dual-rail", "single-rail"),
                   default="four-field")
    p.add_argument("--omega-mhz", type=float, default=0.5)
    p.add_argument("--v", type=float, default=0.0, help="velocity m/s")
    p.add_argument("--z0", type=float, default=0.0, help="initial coordinate um")
    p.add_argument("--t", type=float, default=0.5, help="duration us")
    p.add_argument("--samples", type=int, default=1000)
    p.set_defaults(func=cmd_excite)

    p = sub.add_parser("restore", help="pi + 3*pi excite/restore sequence")
    _add_common(p)
    p.add_argument("--omega-mhz", type=float, default=OMEGA_MHZ)
    p.add_argument("--omega-dp-mhz", type=float, default=None,
                   help="deexcitation amplitude; optimized when omitted")
    p.add_argument("--sign", type=int, choices=(+1, -1), default=-1,
                   help="deexcitation sign used when optimizing")
    _add_velocity_or_temperature(p)
    p.add_argument("--z0", type=float, default=0.0)
    p.add_argument("--grid-points", type=int, default=201)
    p.set_defaults(func=cmd_restore)

    p = sub.add_parser("gap", help="excite / infrared wait / restore sequence")
    _add_common(p)
    p.add_argument("--omega-mhz", type=float, default=OMEGA_MHZ)
    p.add_argument("--omega-dp-mhz", type=float, default=OMEGA_DP_MHZ)
    p.add_argument("--omega-if-mhz", type=float, default=OMEGA_MHZ)
    p.add_argument("--n-cycles", type=int, default=1)
    _add_velocity_or_temperature(p)
    p.add_argument("--z0", type=float, default=0.0)
    p.add_argument("--grid-points", type=int, default=201)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("optimize", help="locate the optimal deexcitation amplitude")
    _add_common(p)
    p.add_argument("--omega-mhz", type=float, required=True)
    p.add_argument("--sign", type=int, choices=(+1, -1), default=+1)
    p.add_argument("--v-ref", type=float, default=0.05)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("gate", help="blockade-gate fidelity")
    _add_common(p)
    p.add_argument("--method", choices=("dual_rail", "traditional"),
                   default="dual_rail")
    p.add_argument("--omega-mhz", type=float, default=OMEGA_MHZ)
    p.add_argument("--omega-dp-mhz", type=float, default=OMEGA_DP_MHZ)
    p.add_argument("--omega-t-mhz", type=float, default=OMEGA_MHZ)
    p.add_argument("--omega-if-mhz", type=float, default=OMEGA_MHZ)
    p.add_argument("--n-cycles", type=int, default=1)
    p.add_argument("--temp-uk", type=float, default=10.0)
    p.add_argument("--grid-points", type=int, default=100)
    p.add_argument("--l-um", type=float, default=None,
                   help="override trap separation")
    p.add_argument("--grid-output", help="CSV dump of the (v_c, v_t) error grid")
    p.set_defaults(func=cmd_gate)

    p = sub.add_parser("sweep", help="1D parameter sweep")
    _add_common(p)
    p.add_argument("--axis", choices=("v", "z0", "omega", "temp"), required=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--num", type=int, required=True)
    p.add_argument("--protocol", choices=("restore", "gap", "traditional", "phase"),
                   default="restore")
    p.add_argument("--omega-mhz", type=float, default=OMEGA_MHZ)
    p.add_argument("--omega-dp-mhz", type=float, default=OMEGA_DP_MHZ)
    p.add_argument("--omega-if-mhz", type=float, default=OMEGA_MHZ)
    p.add_argument("--n-cycles", type=int, default=1)
    p.add_argument("--t-wait", type=float, default=math.sqrt(2.0) / 2.0)
    p.add_argument("--v", type=float, default=0.05)
    p.add_argument("--z0", type=float, default=0.0)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("table", help="recompute bundled benchmark tables")
    _add_common(p)
    p.add_argument("--which", type=int, choices=(1, 2), required=True)
    p.add_argument("--rows", type=lambda s: [int(x) for x in s.split(",")],
                   default=None, help="comma-separated row numbers")
    p.add_argument("--grid-points", type=int, default=None,
                   help="table 2's velocity grid points per axis (default 100)")
    p.set_defaults(func=cmd_table)

    return parser


def _check_output_paths(args) -> None:
    """Refuse an output path that no run could write, before any computing."""
    for flag in ("output", "grid_output"):
        path = getattr(args, flag, None)
        if not path:
            continue
        name = "--" + flag.replace("_", "-")
        if os.path.isdir(path):
            raise UsageError(f"{name} {path} is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise UsageError(f"{name} {path} lies in no existing directory")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _check_output_paths(args)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args, get_config(args.preset, args.config))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (
        core.ConvergenceError,
        protocols.OptimizationError,
        protocols.PhaseExtractionError,
        FloatingPointError,  # raised by the errstate above
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print("numerical failure: out of memory", *exc.args, file=sys.stderr)
        return 3
    except (KeyError, ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
