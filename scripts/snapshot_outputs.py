#!/usr/bin/env python3
"""Write the outputs of a fixed set of focklab runs, without their wall-clock
fields, so that two checkouts can be compared byte for byte.

    python3 scripts/snapshot_outputs.py OUT_DIR
    diff -r OUT_DIR_A OUT_DIR_B

Seven configs on a 3-site contact lattice (theta, theta with a log m
schedule, product, coherent, and product, theta and 3-component coherent
superpositions) each run under {csv, json} x {1, 2 threads}.  Each run
writes one file, ``NAME-THREADSt-FORMAT.txt``: the command's stdout, then its
report.  ``check --level quick --seed 2024`` writes ``check-quick.txt``: its
stdout, then its verdict.  Removed from them: the JSON report's
``metadata.total_runtime_s``, the ``runtime_s`` of a 2-thread run (its CSV
cell is left blank, as a 1-thread run writes it) and each check's
``seconds``.  The program run is the ``src/focklab`` of the checkout this
script lives in.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from math import sqrt
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from focklab.cli import main as focklab  # noqa: E402

LATTICE = {"geometry": "lattice", "sites": 3, "hopping": 1.0,
           "potential": {"kind": "contact", "g": 1.0}}
PHI_A = [[0.6, 0.0], [0.0, 0.8], [0.0, 0.0]]
PHI_B = [[0.0, 0.0], [0.6, 0.0], [0.0, 0.8]]
PHI_C = [[0.48, 0.0], [0.6, 0.0], [0.0, 0.64]]
C = 1 / sqrt(2)


def _superposition(kind, phis, **extra):
    return {"family": "superposition", "kind": kind,
            "components": [{"phi": phi, "coeff": [C, 0.0], **extra} for phi in phis]}


# name -> (subcommand, state, n_list)
CONFIGS = {
    "theta": ("converge", {"family": "theta", "phi": PHI_A, "m": 1}, [3, 4, 5]),
    "theta-log": ("converge", {"family": "theta", "phi": PHI_A,
                               "m": {"schedule": "log", "a": 0.9}}, [3, 6, 10]),
    "product": ("converge", {"family": "product", "phi": PHI_A}, [2, 3, 4]),
    "coherent": ("converge", {"family": "coherent", "phi": PHI_A}, [2, 3, 4]),
    "product-superposition": ("superpose", _superposition("product", [PHI_A, PHI_B]),
                              [2, 3, 4]),
    "theta-superposition": ("superpose", _superposition("theta", [PHI_A, PHI_B], m=1),
                            [3, 4, 5]),
    "coherent-superposition": ("superpose",
                               _superposition("coherent", [PHI_A, PHI_B, PHI_C]), [2, 3]),
}


def _run(argv, out):
    """focklab's stdout for ``argv``, with the output directory written OUT."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = focklab(argv + ["--out", out])
    if code != 0:
        raise SystemExit(f"focklab {' '.join(argv)} exited {code}")
    return buf.getvalue().replace(out, "OUT")


def _report(path, threads):
    """The report at ``path`` without its wall-clock fields."""
    text = Path(path).read_text(encoding="utf-8")
    if path.endswith(".csv"):
        if threads == 1:
            return text
        header, *rows = text.splitlines()  # runtime_s is the last column
        return "\n".join([header] + [r.rsplit(",", 1)[0] + "," for r in rows]) + "\n"
    doc = json.loads(text)
    doc["metadata"].pop("total_runtime_s")
    if threads > 1:
        for row in doc["rows"]:
            row.pop("runtime_s")
    return json.dumps(doc, indent=1) + "\n"


def snapshot(out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, (command, state, n_list) in CONFIGS.items():
            config = os.path.join(tmp, f"{name}.json")
            with open(config, "w", encoding="utf-8") as fh:
                json.dump({"mode_system": LATTICE, "state": state, "n_list": n_list,
                           "t_list": [0.0, 0.5], "tolerances": {"hartree_tol": 1e-12},
                           "seed": 1}, fh)
            stem = "convergence" if command == "converge" else "superposition"
            for fmt in ("csv", "json"):
                for threads in (1, 2):
                    out = os.path.join(tmp, f"{name}-{threads}-{fmt}")
                    stdout = _run([command, "--config", config, "--format", fmt,
                                   "--threads", str(threads)], out)
                    report = _report(os.path.join(out, f"{stem}.{fmt}"), threads)
                    Path(out_dir, f"{name}-{threads}t-{fmt}.txt").write_text(
                        stdout + report, encoding="utf-8")
        out = os.path.join(tmp, "check")
        stdout = _run(["check", "--level", "quick", "--seed", "2024"], out)
        doc = json.loads(Path(out, "invariants.json").read_text(encoding="utf-8"))
        for check in doc["checks"]:
            check.pop("seconds")
        Path(out_dir, "check-quick.txt").write_text(
            stdout + json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir", help="directory the snapshot files are written to")
    snapshot(ap.parse_args().out_dir)
