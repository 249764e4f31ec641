#!/usr/bin/env python3
"""Write the outputs of a fixed set of focklab runs, without their wall-clock
fields, so that two checkouts can be compared byte for byte.

    python3 scripts/snapshot_outputs.py OUT_DIR
    diff -r OUT_DIR_A OUT_DIR_B

Every subcommand runs at least once:

* seven configs on a 3-site contact lattice (theta, theta with a log m
  schedule, product, coherent, and product, theta and 3-component coherent
  superpositions) each run under {csv, json} x {1, 2 threads}; each run
  writes one file, ``NAME-THREADSt-FORMAT.txt``: the command's stdout, then
  its report;
* ``hartree`` on the theta config at ``t_list`` [0.0, 0.5]
  (``hartree-two-times.txt``) and [0.5] alone, the 101-sample grid
  (``hartree-one-time.txt``): stdout, then the trajectory CSV;
* ``fit --t 0.5`` on the theta run's CSV, ``--format csv`` and ``json``
  (``fit-FORMAT.txt``): stdout;
* six refusals, each written as ``refusal-NAME.txt``: the exit code, then
  stderr, with the scratch directory read ``TMP``.  ``converge`` on a
  config with an unknown key (``unknown-key``), one whose cell exceeds the
  state cap (``above-cap``), one with a ``{"schedule": "constant"}`` m
  (``constant-schedule``), one nested 100,000 arrays deep (``nested``), and
  the theta config with a directory on its report's path
  (``unwritable-report``); ``superpose`` on a product pair whose
  coefficients, both 3e-162, give a subnormal square norm
  (``subnormal-norm``);
* ``check --level quick --seed 2024`` writes ``check-quick.txt``: its
  stdout, then its verdict.

Removed from them: the JSON report's ``metadata.total_runtime_s``, the
``runtime_s`` of a 2-thread run (its CSV cell is left blank, as a 1-thread
run writes it) and each check's ``seconds``.  The program run is the
``src/focklab`` of the checkout this script lives in.
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


def _run(argv, out=None, expect=0):
    """focklab's stdout and stderr for ``argv`` run with ``--out out`` (if
    given), the output directory written OUT; SystemExit unless it exits
    ``expect``."""
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = focklab(argv + (["--out", out] if out else []))
    if code != expect:
        raise SystemExit(f"focklab {' '.join(argv)} exited {code}: {err.getvalue()}")
    texts = buf.getvalue(), err.getvalue()
    return tuple(text.replace(out, "OUT") for text in texts) if out else texts


def _config(path, state, n_list, t_list, **extra):
    """Write a config on the lattice to ``path``; return ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"mode_system": LATTICE, "state": state, "n_list": n_list,
                   "t_list": t_list, "tolerances": {"hartree_tol": 1e-12}, "seed": 1,
                   **extra}, fh)
    return path


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
            config = _config(os.path.join(tmp, f"{name}.json"), state, n_list, [0.0, 0.5])
            stem = "convergence" if command == "converge" else "superposition"
            for fmt in ("csv", "json"):
                for threads in (1, 2):
                    out = os.path.join(tmp, f"{name}-{threads}-{fmt}")
                    stdout, _ = _run([command, "--config", config, "--format", fmt,
                                      "--threads", str(threads)], out)
                    report = _report(os.path.join(out, f"{stem}.{fmt}"), threads)
                    Path(out_dir, f"{name}-{threads}t-{fmt}.txt").write_text(
                        stdout + report, encoding="utf-8")
        theta, n_list = CONFIGS["theta"][1:]
        for name, t_list in (("two-times", [0.0, 0.5]), ("one-time", [0.5])):
            config = _config(os.path.join(tmp, f"hartree-{name}.json"), theta, n_list, t_list)
            out = os.path.join(tmp, f"hartree-{name}")
            stdout, _ = _run(["hartree", "--config", config], out)
            trajectory = Path(out, "hartree_trajectory.csv").read_text(encoding="utf-8")
            Path(out_dir, f"hartree-{name}.txt").write_text(stdout + trajectory,
                                                            encoding="utf-8")
        for fmt in ("csv", "json"):
            stdout, _ = _run(["fit", os.path.join(tmp, "theta-1-csv", "convergence.csv"),
                              "--t", "0.5", "--format", fmt])
            Path(out_dir, f"fit-{fmt}.txt").write_text(stdout, encoding="utf-8")
        nested = Path(tmp, "deep.json")
        nested.write_text("[" * 100_000, encoding="utf-8")
        os.makedirs(os.path.join(tmp, "unwritable-report", "convergence.csv"))
        tiny = _superposition("product", [PHI_A, PHI_B])
        for comp in tiny["components"]:
            comp["coeff"] = 3e-162
        for name, command, code, config in (
                ("unknown-key", "converge", 2, _config(os.path.join(tmp, "unknown-key.json"),
                                                       theta, n_list, [0.5], bogus=1)),
                ("above-cap", "converge", 3, _config(os.path.join(tmp, "above-cap.json"),
                                                     CONFIGS["product"][1], [4000], [0.5])),
                ("constant-schedule", "converge", 2,
                 _config(os.path.join(tmp, "constant-schedule.json"),
                         dict(theta, m={"schedule": "constant", "m": 1}), n_list, [0.5])),
                ("nested", "converge", 2, str(nested)),
                ("unwritable-report", "converge", 2,
                 _config(os.path.join(tmp, "unwritable.json"), theta, n_list, [0.5])),
                ("subnormal-norm", "superpose", 2,
                 _config(os.path.join(tmp, "subnormal-norm.json"), tiny, [2, 3], [0.5]))):
            _, stderr = _run([command, "--config", config], os.path.join(tmp, name), code)
            Path(out_dir, f"refusal-{name}.txt").write_text(
                f"exit {code}\n{stderr.replace(tmp, 'TMP')}", encoding="utf-8")
        out = os.path.join(tmp, "check")
        stdout, _ = _run(["check", "--level", "quick", "--seed", "2024"], out)
        doc = json.loads(Path(out, "invariants.json").read_text(encoding="utf-8"))
        for check in doc["checks"]:
            check.pop("seconds")
        Path(out_dir, "check-quick.txt").write_text(
            stdout + json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir", help="directory the snapshot files are written to")
    snapshot(ap.parse_args().out_dir)
