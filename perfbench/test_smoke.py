"""Smoke test of the benchmark itself (not of focklab).

    python3 -m pytest -q perfbench/test_smoke.py

Runs each workload's smallest operation through the untraced and the traced
path, checks that every metric named in BENCHMARK.json comes out with its
unit, and that a corrupted sweep CSV counts as a failed operation.  Takes
about a minute, most of it the quick invariant suite.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
from workloads import WORKLOADS, SweepWorkload, check_sweep_csv  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE_SEED = 7


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_lists_known_workloads_and_every_metric():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert _units("end_to_end") == {n: u for n, u, _ in bench.END_TO_END}
    assert _units("per_layer") == {n: u for n, u, _ in bench.PER_LAYER_ALL}


def test_predictions_name_known_metrics_and_workloads():
    doc = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
    assert set(doc["workloads"]) == set(WORKLOADS)
    layer = _units("per_layer")
    end_to_end = _units("end_to_end")
    for p in doc["predictions"]:
        assert set(p["layer_metrics"]) <= set(layer), p["id"]
        for workload, metrics in p["moves"].items():
            assert workload in WORKLOADS and set(metrics) <= set(end_to_end)
        assert set(p.get("no_change", [])) <= set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smallest_operation_reports_every_metric(name, tmp_path):
    runner = bench.Runner(WORKLOADS[name], SMOKE_SEED, str(tmp_path))
    metrics, detail = bench.run_untraced(runner, 0, import_s=0.0, smallest=True)
    setups = len(detail["setup_repeats_s"])
    assert 1 <= setups <= bench.SETUP_REPEATS
    assert {k: v["unit"] for k, v in metrics.items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())
    metrics, detail = bench.run_traced(runner, 0, smallest=True)
    assert {k: v["unit"] for k, v in metrics.items()} == _units("per_layer")
    assert detail["traced_ops"] == 1 and detail["spans"] > 0
    assert metrics["cli.main.s"]["value"] > 0
    assert runner.problems == []
    # untraced: the set-ups and one op; traced: one warm-up and one pair
    assert (runner.attempted, runner.failed) == (setups + 4, 0)
    assert list(tmp_path.iterdir()) == []


def test_tracer_wraps_every_import_site_and_restores_it():
    from focklab import dynamics, fock, harness, rdm
    from spans import Tracer

    sites = [(fock, "ladder_matrix"), (rdm, "ladder_matrix"),
             (dynamics, "make_plan"), (harness, "make_plan")]
    originals = [getattr(mod, name) for mod, name in sites]
    from_json = vars(harness.ExperimentConfig)["from_json"]
    with Tracer().installed():
        assert all(getattr(mod, name) is not orig
                   for (mod, name), orig in zip(sites, originals))
        assert vars(harness.ExperimentConfig)["from_json"] is not from_json
    assert [getattr(mod, name) for mod, name in sites] == originals
    assert vars(harness.ExperimentConfig)["from_json"] is from_json


def _corrupting(main, stem):
    """cli.main that swaps hs_dist and trace_dist in the CSV it wrote."""
    def wrapped(argv):
        rc = main(argv)
        path = os.path.join(argv[argv.index("--out") + 1], f"{stem}.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for i in range(1, len(lines)):
            f = lines[i].split(",")
            f[3], f[4] = f[4], f[3]
            lines[i] = ",".join(f)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return rc
    return wrapped


def test_corrupted_csv_counts_as_failure(tmp_path, monkeypatch):
    workload = WORKLOADS["converge-theta-l4"]
    monkeypatch.setattr(bench.cli, "main", _corrupting(bench.cli.main, workload.stem))
    runner = bench.Runner(workload, SMOKE_SEED, str(tmp_path))
    runner.run_op(0, 0, smallest=True)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "not op <= hs <= trace" in runner.problems[0]


def test_csv_checks(tmp_path):
    path = tmp_path / "convergence.csv"
    header = "n,m,t,trace_dist,hs_dist,op_dist,cross_term,bound_envelope,runtime_s\n"
    good = "10,1,0.5,0.3,0.2,0.1,,0.01,\n"
    path.write_text(header + good)
    assert check_sweep_csv(str(path), [(10, 0.5)]) == []
    assert check_sweep_csv(str(path), [(10, 0.5), (10, 1.0)]) != []
    ref = [[10, 0.5, 0.3, 0.2, 0.1 + 1e-11]]
    assert "reference" in check_sweep_csv(str(path), [(10, 0.5)], ref)[0]
    path.write_text(header.replace("hs_dist", "hs") + good)
    assert check_sweep_csv(str(path), [(10, 0.5)]) != []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "converge-theta-l4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_sweep_configs_use_the_documented_tolerance():
    for w in WORKLOADS.values():
        if isinstance(w, SweepWorkload):
            cfg = w.config(SMOKE_SEED, 1, 0)
            assert cfg["tolerances"] == {"hartree_tol": 1e-12}
            assert w.cells() == len(cfg["n_list"]) * len(cfg["t_list"])
