"""Benchmark of dualrail: four workloads, timed end to end or traced by layer.

Run from the root of a dualrail checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of restoration_table, gate_table, point_queries, cli_gate (see
workloads.py and README.md).  With ``--trace 0`` the run measures whole passes
of the workload for about S seconds (at least one pass) and reports the
end-to-end metrics, with every timing divided by the host-speed factor of
speed.py; with ``--trace 1`` it runs one plain pass and one traced pass and
reports the per-layer metrics.  Either way every computed value goes
through the correctness gate.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the full result,
with provenance, is also written to perfbench/out/.

Exit codes: 0 every check passed, 1 a check failed, 2 not run from a dualrail
checkout.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before NumPy is imported, here and in every child.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = {"full": 3, "smoke": 1}
# Stop starting passes once this much of the 180 s a run may take is used.
HARD_STOP_S = 120.0

# Set-up as a user pays it: a fresh interpreter imports dualrail and builds
# the configs, params and inputs, up to the first timed call.
SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = {paths!r}
import workloads
workloads.WORKLOADS[{name!r}].prepare({size!r}, {seed!r})
print(time.perf_counter() - start)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: a few seconds per workload, for self-tests")
    return parser.parse_args(argv)


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure_setup(name: str, size: str, seed: int) -> list[float]:
    code = SETUP_CODE.format(paths=[str(SRC), str(BENCH_DIR)], name=name,
                             size=size, seed=seed)
    times = []
    for _ in range(SETUP_REPEATS[size]):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def timed_pass(workload, ctx, checks):
    cpu0, start = cpu_seconds(), time.perf_counter()
    result = workload.run_pass(ctx, checks)
    return result, time.perf_counter() - start, cpu_seconds() - cpu0


def tail_percentile(samples) -> float:
    """Highest order statistic with at least ten samples beyond it: the 99th
    percentile at 1,000 samples, the maximum below 11."""
    ordered = sorted(samples)
    return ordered[-1] if len(ordered) < 11 else ordered[len(ordered) - 11]


def point_latencies(extras: list[dict]) -> dict[str, float]:
    """Per-kind latency of point_queries, pooled over passes; 0 elsewhere."""
    out = {}
    for kind in ("protocol", "gate"):
        values = [v for extra in extras for v in extra.get(f"{kind}_point_ms", [])]
        out[f"{kind}_point_ms_p50"] = statistics.median(values) if values else 0.0
        out[f"{kind}_point_ms_p99"] = tail_percentile(values) if values else 0.0
        out[f"{kind}_point_samples"] = len(values)
    return out


def run_plain(workload, ctx, checks, args, started, speed):
    """Set-up and passes, each timing scaled by the host's speed while it ran."""
    probe = speed.SpeedProbe()
    walls, cpus, factors, extras, samples = [], [], [], [], 0
    with probe.running():
        setups = measure_setup(workload.name, args.size, args.seed)
        setup_factor = speed.factor(probe.samples)
        while True:
            first_probe = len(probe.samples)
            result, wall, cpu = timed_pass(workload, ctx, checks)
            factors.append(speed.factor(probe.samples[first_probe:] or probe.samples))
            walls.append(wall)
            cpus.append(cpu)
            extras.append(result.extra)
            samples += result.samples
            next_pass = statistics.median(walls)
            if (sum(walls) + next_pass > args.seconds
                    or time.perf_counter() - started + next_pass > HARD_STOP_S):
                break
    setup = statistics.median(setups)
    raw = {
        "wall_s": statistics.median(walls) + (setup if workload.in_process else 0.0),
        "evals_per_s": samples / sum(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": setup,
    }
    scaled_walls = [wall / f for wall, f in zip(walls, factors)]
    scaled_setup = setup / setup_factor
    metrics = {
        "wall_s": statistics.median(scaled_walls)
        + (scaled_setup if workload.in_process else 0.0),
        "evals_per_s": samples / sum(scaled_walls),
        "cpu_s": statistics.median(cpu / f for cpu, f in zip(cpus, factors)),
        "setup_s": scaled_setup,
        "peak_rss_mb": peak_rss_mb(workload.in_process),
    }
    details = {"passes": len(walls), "pass_wall_s": walls, "pass_cpu_s": cpus,
               "pass_speed_factors": factors, "setup_samples_s": setups,
               "setup_speed_factor": setup_factor, "samples": samples,
               "speed_probes": len(probe.samples),
               **{f"raw_{name}": value for name, value in raw.items()},
               **point_latencies(extras)}
    return metrics, details


def run_traced(workload, ctx, checks, args, tracing):
    result, plain_wall, _ = timed_pass(workload, ctx, checks)
    tracer = tracing.Tracer()
    spans = BENCH_DIR / "out" / f"spans-{workload.name}-seed{args.seed}.npz"
    traced, traced_wall = workload.traced_pass(ctx, checks, tracer, spans)
    metrics = traced.extra["layers"] if "layers" in traced.extra else tracer.metrics()
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    latencies = point_latencies([result.extra])
    for key in ("protocol_point_ms_p50", "protocol_point_ms_p99",
                "gate_point_ms_p50", "gate_point_ms_p99"):
        metrics[key] = latencies[key]
    details = {"plain_wall_s": plain_wall, "traced_wall_s": traced_wall,
               "note": tracing.UNTRACED_NOTE, "spans": str(spans.relative_to(ROOT)),
               **workload.trace_notes(tracer)}
    return metrics, details


# -- provenance -------------------------------------------------------------------


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dualrail").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def blas_threads():
    """Thread count OpenBLAS reports, read from the loaded library."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return "unknown"
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    import dualrail
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "dualrail_version": dualrail.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "mp_start_method": multiprocessing.get_start_method(),
        "seed": seed,
    }


# -- main ---------------------------------------------------------------------------


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "dualrail" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {ROOT} holds no dualrail checkout "
              "(src/dualrail and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import dualrail

    if Path(dualrail.__file__).resolve().parent != (SRC / "dualrail").resolve():
        print(f"perfbench: imported dualrail from {dualrail.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import speed
    import tracing
    import workloads

    spec = json.loads(spec_path.read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    (BENCH_DIR / "out").mkdir(exist_ok=True)

    ctx = workload.prepare(args.size, args.seed)
    refs = workloads.load_reference(args.size).get(workload.name, {})
    checks = workloads.Gate(refs)
    if args.trace:
        metrics, details = run_traced(workload, ctx, checks, args, tracing)
        declared = spec["per_layer"]
    else:
        metrics, details = run_plain(workload, ctx, checks, args, started, speed)
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")

    prov = provenance(args.seed)
    print(f"perfbench workload={workload.name} seed={args.seed} trace={args.trace} "
          f"size={args.size}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(f"failed_frac = {checks.failed_frac:.6g} "
          f"({checks.failed} of {checks.attempted} operations)")
    for key, value in details.items():
        if not isinstance(value, list):
            print(f"  {key} = {value}")
    for line in checks.reports:
        print(f"  report: {line}")
    for line in checks.failures[:20]:
        print(f"  FAILED: {line}")

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    record = dict(result, workload=workload.name, trace=args.trace, size=args.size,
                  failed_frac=checks.failed_frac, provenance=prov, details=details,
                  reports=checks.reports, failures=checks.failures)
    out = BENCH_DIR / "out" / (
        f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json")
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
