"""focklab benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program under test is the ``src/focklab`` next to this
directory, imported from source.  BLAS is pinned to one thread through this
process's own environment and every sweep runs with ``--threads 1``.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (start of this
script until focklab is imported, plus the median of up to three cold-cache
set-ups, each generating a config and running the workload's smallest
operation; see ``bench.SETUP_REPEATS``), ``op_s`` (median wall time of one
command after set-up), ``cells_per_s`` (output cells per second of command
time: (n, t) rows of a sweep, checks of the suite) and ``peak_rss_mb``
(``ru_maxrss`` at the end of the run).
``--trace 1`` prints the per-layer metrics, per traced operation, from spans
around focklab's public functions (see ``spans.py``), plus ``trace.overhead``
and ``fail_frac``.

Operation outputs go to a temporary directory inside the checkout that is
removed before exit.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the machine block and per-run detail.  Exit code 2 without a result means
the benchmark could not run (bad arguments, no focklab source).
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)  # workloads.DEFAULT_SEED
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "focklab" / "__init__.py").is_file():
        print(f"no focklab source under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import focklab

    if Path(focklab.__file__).resolve().parent != SRC / "focklab":
        print(f"imported focklab from {focklab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _START
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    # on SIGTERM, unwind so the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = bench.Runner(WORKLOADS[args.workload], args.seed, tmp)
        if args.trace:
            metrics, detail = bench.run_traced(runner, args.seconds)
        else:
            metrics, detail = bench.run_untraced(runner, args.seconds, import_s)
    for problem in runner.problems:
        print(problem, file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "machine": bench.machine(),
                      "detail": detail, "problems": runner.problems}))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
