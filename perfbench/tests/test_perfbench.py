"""Self-tests of the benchmark: each workload at smoke size, and the
correctness gate failing on a perturbed value and on a raised exception.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import pytest

import run
import speed
import workloads
from dualrail import gate, protocols

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMOKE = ("--seed", "5", "--seconds", "1", "--size", "smoke")


def bench(*args, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def last_result(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_passes_and_reports_the_declared_metrics(workload, trace):
    proc, result = bench("--workload", workload, "--trace", trace, *SMOKE)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    runs = [bench("--workload", "restoration_table", "--trace", "1", *SMOKE)[1]
            for _ in range(2)]
    counts = [
        {name: m["value"] for name, m in result["metrics"].items()
         if m["unit"] == "count"}
        for result in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["propagator.calls"] == 21 + 1 + counts[0][
        "protocols.optimizer_evals"]


def test_point_inputs_come_from_the_seed_alone():
    workload = workloads.WORKLOADS["point_queries"]
    first, again, other = (workload.prepare("smoke", seed) for seed in (7, 7, 8))
    assert first["gap"] == again["gap"] and first["gate"] == again["gate"]
    assert first["gate"] != other["gate"]
    assert len(set(first["gate"])) == len(first["gate"])


def test_speed_probe_samples_while_running():
    probe = speed.SpeedProbe()
    with probe.running():
        time.sleep(1.0 + 5 * speed.PERIOD_S)
    assert len(probe.samples) >= 3
    assert speed.factor(probe.samples) > 0


def test_speed_factor_averages_speed_not_probe_time():
    # Half the time at full speed, half at a third: the mean speed is 2/3.
    samples = [speed.REFERENCE_S, 3 * speed.REFERENCE_S]
    assert speed.factor(samples) == pytest.approx(1.5)


def test_perturbed_value_fails_the_gate(monkeypatch, capsys):
    original = protocols.maxwell_average

    def perturbed(*args, **kwargs):
        avg = original(*args, **kwargs)
        return replace(avg, ground_population=avg.ground_population + 1e-8)

    monkeypatch.setattr(protocols, "maxwell_average", perturbed)
    code = run.main(["--workload", "restoration_table", "--trace", "0", *SMOKE])
    result = last_result(capsys)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] >= 1 and result["failed"] < result["attempted"]


def test_raised_exception_fails_the_gate(monkeypatch, capsys):
    original = gate.gate_report
    calls = []

    def flaky(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise RuntimeError("injected failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(gate, "gate_report", flaky)
    code = run.main(["--workload", "point_queries", "--trace", "0", *SMOKE])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] == 1
    assert f"failed_frac = {1 / result['attempted']:.6g}" in out
    assert "injected failure" in out


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gate_table",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
