"""Runs one workload in this process and assembles its metrics.

An operation is one ``focklab.cli.main(argv)`` call, exactly as a user
would type the command, with its output written to a fresh directory under
the run's temporary directory.  Every operation's output is checked;
a nonzero exit code, an exception or a failed check counts as a failure.
"""

import io
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout

import numpy
import scipy

import focklab
from focklab import cli

from spans import PER_LAYER, Tracer, focklab_modules
from workloads import DEFAULT_SEED, STAGE_OP, STAGE_WARMUP, load_reference, op_key

SETUP_REPEATS = 3     # cold set-ups per run, as long as they fit ...
SETUP_BUDGET_S = 5.0  # ... in this many seconds; at least one always runs

# end-to-end metrics of the untraced run: (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("op_s", "s", "lower"),
    ("cells_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

# per-layer metrics of the traced run: the spans' metrics plus two of its own
PER_LAYER_ALL = PER_LAYER + [
    ("trace.overhead", "ratio", "lower"),
    ("fail_frac", "ratio", "lower"),
]


def clear_caches():
    """Empty every functools cache in focklab (the enumerate_basis LRU)."""
    for mod in focklab_modules():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(samples):
    """Highest of p50/p90/p99 with at least ten samples above it, or None."""
    best = None
    for p in (50, 90, 99):
        if len(samples) * (1 - p / 100.0) >= 10:
            best = (p, statistics.quantiles(samples, n=100)[p - 1])
    return best


class Runner:
    """Operations of one workload on one seed, with their failure ledger."""

    def __init__(self, workload, seed, tmp_dir):
        self.workload = workload
        self.seed = seed
        self.tmp_dir = tmp_dir
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = (load_reference().get(workload.name, {})
                          if seed == DEFAULT_SEED else {})

    def run_op(self, stage, index, smallest=False, tracer=None):
        """Prepare, run and check one operation.

        Returns (prepare seconds, command seconds, output fingerprint or None).
        """
        key = op_key(stage, index)
        out_dir = tempfile.mkdtemp(dir=self.tmp_dir)
        self.attempted += 1
        t0 = time.perf_counter()
        argv = self.workload.prepare(self.seed, stage, index, out_dir, smallest)
        t1 = time.perf_counter()
        # the CLI's own prints must not reach the benchmark's standard output
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr), \
                    (tracer.installed() if tracer else nullcontext()):
                rc = cli.main(argv)
        except Exception:
            rc = None
            stderr.write(traceback.format_exc())
        t2 = time.perf_counter()
        if rc != 0:
            problems = [f"exit code {rc}: {stderr.getvalue().strip()[-500:]}"]
        else:
            # the reference holds the warm-ups and the full-size timed ops
            ref = None if smallest and stage == STAGE_OP else self.reference.get(key)
            problems = self.workload.check(out_dir, smallest, ref)
        output = None if problems else self.workload.output(out_dir)
        shutil.rmtree(out_dir)
        self.fail(key, problems)
        return t1 - t0, t2 - t1, output

    def fail(self, key, problems):
        if problems:
            self.failed += 1
            self.problems += [f"{self.workload.name} {key}: {p}" for p in problems]


def run_untraced(runner, seconds, import_s, smallest=False):
    """Set-up (repeated cold) then timed operations for ``seconds``.  A new
    operation starts only while one more of the last one's length still
    fits, so the timed part of a run stays within ``seconds``.

    ``smallest`` makes the timed operations the workload's smallest one, for
    a quick check of the benchmark itself.
    """
    setups = []
    while not setups or (len(setups) < SETUP_REPEATS
                         and sum(setups) < SETUP_BUDGET_S):
        clear_caches()
        prep, cmd, _ = runner.run_op(STAGE_WARMUP, len(setups), smallest=True)
        setups.append(prep + cmd)
    op_times = []
    start = time.perf_counter()
    while not op_times or time.perf_counter() - start + op_times[-1] <= seconds:
        _prep, cmd, _ = runner.run_op(STAGE_OP, len(op_times), smallest)
        op_times.append(cmd)
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "op_s": statistics.median(op_times),
        "cells_per_s": runner.workload.cells(smallest) * len(op_times) / sum(op_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {
        "import_s": import_s,
        "setup_repeats_s": setups,
        "op_s_samples": len(op_times),
        "op_s_tail": tail_percentile(op_times),
        "op_times_s": op_times,
    }
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit, _ in END_TO_END}, detail


def run_traced(runner, seconds, smallest=False):
    """One cold warm-up, then pairs of untraced and traced operations on the
    same inputs, alternating which runs first, as long as one more pair of
    the last one's length fits in ``seconds``.  A pair whose outputs differ
    is a failure."""
    clear_caches()
    runner.run_op(STAGE_WARMUP, 0, smallest=True)
    tracer = Tracer()
    times = {False: [], True: []}  # traced? -> command seconds
    start = time.perf_counter()
    pair_s = 0.0
    while not times[True] or time.perf_counter() - start + pair_s <= seconds:
        pair_start = time.perf_counter()
        i = len(times[True])
        outputs = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            _prep, cmd, outputs[traced] = runner.run_op(
                STAGE_OP, i, smallest, tracer if traced else None)
            times[traced].append(cmd)
        if outputs[False] is not None and outputs[False] != outputs[True]:
            runner.fail(op_key(STAGE_OP, i), ["traced output differs from untraced"])
        pair_s = time.perf_counter() - pair_start
    values = tracer.metrics()
    values["trace.overhead"] = (statistics.median(times[True])
                                / statistics.median(times[False]) - 1)
    values["fail_frac"] = runner.failed / runner.attempted
    units = {name: unit for name, unit, _ in PER_LAYER_ALL}
    detail = {"traced_ops": tracer.ops, "spans": len(tracer.spans),
              "span_summary": tracer.summary()}
    return {name: {"value": v, "unit": units[name]} for name, v in values.items()}, detail


def machine():
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "focklab": focklab.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "threads_arg": 1,
    }
