"""The benchmark workloads: inputs drawn from a seed, the CLI argv that runs
them, and the checks their outputs must pass.  BENCHMARK.json lists the ones
the benchmark runs by default; predictions.json says why each exists.

Every operation is one ``focklab`` command.  Its inputs come from
``numpy.random.default_rng([seed, stage, index])``, so the same workload seed
gives the same inputs for every operation, independent of how many
operations a run manages to finish.  Stage 0 is the set-up warm-up, stage 1
the timed operations.
"""

import csv
import json
import os
from collections.abc import Callable
from dataclasses import dataclass
from math import sqrt
from pathlib import Path

import numpy as np

from focklab.errors import ConfigError
from focklab.harness import CSV_HEADER, report_from_csv

DEFAULT_SEED = 1
REFERENCE_TOL = 1e-12  # agreement bound of ROADMAP aim 1
REFERENCE_PATH = Path(__file__).with_name("reference.json")
STAGE_WARMUP = 0
STAGE_OP = 1


def _unit(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return [[float(z.real), float(z.imag)] for z in v]


def _lattice(sites):
    return {"geometry": "lattice", "sites": sites, "hopping": 1.0,
            "potential": {"kind": "contact", "g": 1.0}}


def theta_state(rng, sites):
    """Theta family, m = 1, with a random unit phi."""
    return {"family": "theta", "phi": _unit(rng, sites), "m": 1,
            "excitation_seed": int(rng.integers(2**31))}


def coherent_pair(rng, sites):
    """Two coherent components with random unit phis, coefficients 1/sqrt(2)."""
    c = 1.0 / sqrt(2.0)
    return {"family": "superposition", "kind": "coherent",
            "components": [{"phi": _unit(rng, sites), "coeff": [c, 0.0]}
                           for _ in range(2)]}


def op_key(stage, index):
    return f"{'warmup' if stage == STAGE_WARMUP else 'op'}/{index}"


@dataclass
class SweepWorkload:
    """``converge`` or ``superpose`` on a generated config."""

    name: str
    command: str          # "converge" | "superpose"
    stem: str             # output file stem the command writes
    make_state: Callable  # (rng, sites) -> the config's "state" object
    sites: int
    n_list: list
    t_list: list

    def grid(self, smallest):
        if smallest:
            return self.n_list[:1], self.t_list[:1]
        return self.n_list, self.t_list

    def config(self, seed, stage, index, smallest=False):
        rng = np.random.default_rng([seed, stage, index])
        n_list, t_list = self.grid(smallest)
        return {
            "mode_system": _lattice(self.sites),
            "state": self.make_state(rng, self.sites),
            "n_list": list(n_list),
            "t_list": list(t_list),
            "tolerances": {"hartree_tol": 1e-12},
            "seed": int(rng.integers(2**31)),
            "output": {"dir": "results", "format": "csv"},
        }

    def prepare(self, seed, stage, index, out_dir, smallest=False):
        """Write the operation's config into out_dir; return the CLI argv."""
        path = os.path.join(out_dir, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.config(seed, stage, index, smallest), fh)
        return [self.command, "--config", path, "--out", out_dir,
                "--threads", "1", "--format", "csv"]

    def cells(self, smallest=False):
        n_list, t_list = self.grid(smallest)
        return len(n_list) * len(t_list)

    def output(self, out_dir):
        """Fingerprint of the operation's result: the CSV bytes."""
        with open(os.path.join(out_dir, f"{self.stem}.csv"), "rb") as fh:
            return fh.read()

    def check(self, out_dir, smallest=False, reference=None):
        """Problems with the written CSV, as a list of one-line messages."""
        n_list, t_list = self.grid(smallest)
        return check_sweep_csv(os.path.join(out_dir, f"{self.stem}.csv"),
                               [(n, t) for n in n_list for t in t_list],
                               reference)


def check_sweep_csv(path, expected, reference=None):
    """Schema, row set, norm ordering and (optionally) reference distances."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), None)
        report = report_from_csv(path)
    except (OSError, ConfigError, ValueError, KeyError, TypeError) as e:
        return [f"{os.path.basename(path)} unreadable: {type(e).__name__}: {e}"]
    problems = []
    if header != CSV_HEADER:
        problems.append(f"CSV header {header} != {CSV_HEADER}")
    got = sorted((r.n, r.t) for r in report.rows)
    if got != sorted(expected):
        problems.append(f"rows {got} != {sorted(expected)}")
    for r in report.rows:
        dists = (r.op_dist, r.hs_dist, r.trace_dist)
        if None in dists or not r.op_dist <= r.hs_dist <= r.trace_dist:
            problems.append(f"n={r.n} t={r.t}: not op <= hs <= trace: {dists}")
    if reference is not None:
        problems += compare_reference(distance_rows(report), reference)
    return problems


def distance_rows(report):
    """[[n, t, trace_dist, hs_dist, op_dist], ...] sorted by (n, t)."""
    return [[r.n, r.t, r.trace_dist, r.hs_dist, r.op_dist]
            for r in sorted(report.rows, key=lambda r: (r.n, r.t))]


def compare_reference(got, reference):
    if len(got) != len(reference):
        return [f"{len(got)} rows, reference has {len(reference)}"]
    problems = []
    for g, ref in zip(got, reference):
        if g[:2] != ref[:2]:
            problems.append(f"row {g[:2]} != reference row {ref[:2]}")
            continue
        gap = max(abs(a - b) for a, b in zip(g[2:], ref[2:]))
        if gap > REFERENCE_TOL:
            problems.append(f"n={g[0]} t={g[1]}: distances differ from "
                            f"reference by {gap:.3e} > {REFERENCE_TOL}")
    return problems


# check-quick runs the suite as shipped, with the CLI's default suite seed.
# The suite draws its own mode counts and sizes from its seed, which changes
# its work by up to a factor of two between seeds; the few operations a run
# fits cannot average that out.  So every operation runs the same suite and
# the workload seed does not change it.
SUITE_SEED = 2024
N_CHECKS = 14  # checks in the quick suite


@dataclass
class CheckWorkload:
    """``check --level quick --seed SUITE_SEED``."""

    name: str

    def prepare(self, seed, stage, index, out_dir, smallest=False):
        return ["check", "--level", "quick", "--seed", str(SUITE_SEED),
                "--out", out_dir]

    def cells(self, smallest=False):
        return N_CHECKS

    def verdict(self, out_dir):
        with open(os.path.join(out_dir, "invariants.json"), encoding="utf-8") as fh:
            return json.load(fh)

    def output(self, out_dir):
        """Fingerprint of the verdict: everything but the wall-clock seconds."""
        doc = self.verdict(out_dir)
        for c in doc["checks"]:
            c.pop("seconds")
        return json.dumps(doc, sort_keys=True).encode()

    def check(self, out_dir, smallest=False, reference=None):
        try:
            doc = self.verdict(out_dir)
        except (OSError, ValueError) as e:
            return [f"invariants.json unreadable: {type(e).__name__}: {e}"]
        problems = []
        if doc.get("passed") is not True:
            failed = [c["name"] for c in doc.get("checks", []) if not c.get("passed")]
            problems.append(f"suite verdict not passed; failing checks {failed}")
        if len(doc.get("checks", [])) != N_CHECKS:
            problems.append(f"{len(doc.get('checks', []))} checks, "
                            f"expected {N_CHECKS}")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload("converge-theta-l4", "converge", "convergence", theta_state,
                      sites=4, n_list=[10, 14, 18], t_list=[0.5, 1.0]),
        SweepWorkload("superpose-coherent-l3", "superpose", "superposition",
                      coherent_pair, sites=3, n_list=[2, 3, 4], t_list=[0.5, 1.0]),
        CheckWorkload("check-quick"),
    )
}


def load_reference():
    """Distances recorded on DEFAULT_SEED: {workload: {op key: rows}}."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)
