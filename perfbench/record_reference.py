"""Record the reference distances of the sweep workloads on DEFAULT_SEED.

    python3 perfbench/record_reference.py

Runs the set-up warm-ups and the first N_OPS timed operations of each
sweep workload and writes their (n, t, trace, hs, op) rows to
``reference.json``.  A benchmark run on DEFAULT_SEED then requires every
operation it shares with this file to agree within REFERENCE_TOL.  Record
only from a commit whose distances are trusted.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(ROOT / "src"))

from focklab.harness import report_from_csv  # noqa: E402

import bench  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, REFERENCE_PATH, STAGE_OP, STAGE_WARMUP, WORKLOADS, SweepWorkload,
    distance_rows, op_key,
)

N_OPS = 10  # timed operations per workload; more than any run finishes


def record(workload, tmp):
    runner = bench.Runner(workload, DEFAULT_SEED, tmp)
    runner.reference = {}
    plan = [(STAGE_WARMUP, r, True) for r in range(bench.SETUP_REPEATS)]
    plan += [(STAGE_OP, i, False) for i in range(N_OPS)]
    out = {}
    for stage, index, smallest in plan:
        _prep, _cmd, csv_bytes = runner.run_op(stage, index, smallest)
        if csv_bytes is None:
            raise SystemExit(f"{workload.name}: {runner.problems}")
        path = os.path.join(tmp, "reference.csv")
        with open(path, "wb") as fh:
            fh.write(csv_bytes)
        out[op_key(stage, index)] = distance_rows(report_from_csv(path))
        print(workload.name, op_key(stage, index), flush=True)
    return out


def main():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        doc = {name: record(w, tmp) for name, w in WORKLOADS.items()
               if isinstance(w, SweepWorkload)}
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
