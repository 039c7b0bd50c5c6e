"""Write reference.json: the value this commit computes for every gated check.

Run from the repository root (about a minute):

    python3 perfbench/make_reference.py

The file pins the physics the benchmark gates on, for both sizes.  Rewrite it
only in a change that moves a reproduced number on purpose, and say so in
CHANGES.md.  point_queries has no entries: its inputs change with the seed,
so it is gated by invariants instead.
"""

import json
import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402

# cli_gate is checked against gate_table's values, so it is recorded last.
RECORDED = ("restoration_table", "gate_table", "cli_gate")


def main() -> int:
    reference = {"full": {}, "smoke": {}}
    for size in ("smoke", "full"):
        for name in RECORDED:
            workload = workloads.WORKLOADS[name]
            checks = workloads.Gate(record=True)
            workload.run_pass(workload.prepare(size, 0), checks)
            if checks.failed:
                print("\n".join(checks.failures), file=sys.stderr)
                return 1
            reference[size][name] = checks.refs
            workloads.REFERENCE_PATH.write_text(
                json.dumps(reference, indent=1, sort_keys=True) + "\n"
            )
            print(f"{size} {name}: {len(checks.refs)} values")
    return 0


if __name__ == "__main__":
    sys.exit(main())
