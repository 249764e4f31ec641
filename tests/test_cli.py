"""Subcommands, exit codes, and output files of the command-line driver."""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from math import sqrt
from pathlib import Path

import pytest

from focklab import fock
from focklab.cli import main
from focklab.errors import CapacityError


@pytest.fixture
def theta_config(tmp_path):
    doc = {
        "mode_system": {
            "geometry": "dense",
            "h": [[0, -1], [-1, 0]],
            "v": [[1, 0], [0, 1]],
        },
        "state": {"family": "theta", "phi": [[0.8, 0], [0.36, 0.48]],
                  "m": 1, "excitation_seed": 0},
        "n_list": [4, 6, 8],
        "t_list": [0.5],
        "tolerances": {"hartree_tol": 1e-12},
        "seed": 7,
        "output": {"dir": str(tmp_path / "out"), "format": "csv"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path, doc, tmp_path


def test_check_quick_passes(capsys):
    assert main(["check", "--level", "quick"]) == 0
    out = capsys.readouterr().out
    assert "suite: PASS" in out


def test_converge_writes_csv_and_fits(theta_config, capsys):
    path, doc, tmp = theta_config
    assert main(["converge", "--config", str(path)]) == 0
    out_csv = tmp / "out" / "convergence.csv"
    assert out_csv.exists()
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("n,m,t,trace_dist")
    assert len(lines) == 4
    assert "slope" in capsys.readouterr().out


def test_converge_deterministic_across_runs(theta_config):
    path, doc, tmp = theta_config
    main(["converge", "--config", str(path), "--out", str(tmp / "r1")])
    main(["converge", "--config", str(path), "--out", str(tmp / "r2")])
    b1 = (tmp / "r1" / "convergence.csv").read_bytes()
    b2 = (tmp / "r2" / "convergence.csv").read_bytes()
    assert b1 == b2


def test_seed_flag_overrides(theta_config):
    path, doc, tmp = theta_config
    main(["converge", "--config", str(path), "--out", str(tmp / "s1"), "--seed", "1"])
    main(["converge", "--config", str(path), "--out", str(tmp / "s2"), "--seed", "2"])
    b1 = (tmp / "s1" / "convergence.csv").read_bytes()
    b2 = (tmp / "s2" / "convergence.csv").read_bytes()
    assert b1 != b2  # different excitation draws


def test_superpose_subcommand(tmp_path):
    c = 1 / sqrt(2)
    doc = {
        "mode_system": {"geometry": "dense", "h": [[0, -1], [-1, 0]],
                        "v": [[1, 0], [0, 1]]},
        "state": {"family": "superposition", "kind": "product",
                  "components": [
                      {"phi": [[1, 0], [0, 0]], "coeff": [c, 0]},
                      {"phi": [[0.5, 0], [0.8660254037844386, 0]], "coeff": [c, 0]},
                  ]},
        "n_list": [4, 6], "t_list": [0.5],
        "seed": 1, "output": {"dir": str(tmp_path), "format": "json"},
    }
    cfg = tmp_path / "sup.json"
    cfg.write_text(json.dumps(doc))
    assert main(["superpose", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "superposition.json").read_text())
    assert len(report["rows"]) == 2
    assert report["rows"][0]["cross_term"] == pytest.approx(0.5**4, abs=1e-8)


def test_hartree_export(theta_config):
    path, doc, tmp = theta_config
    assert main(["hartree", "--config", str(path)]) == 0
    csv_path = tmp / "out" / "hartree_trajectory.csv"
    assert csv_path.exists()
    assert csv_path.read_text().splitlines()[0].startswith("t,re_phi_0")


def test_hartree_tol_below_the_floor_runs_without_a_warning(theta_config):
    # the integrator raises rtol to 100 eps; scipy's did so with a two-line
    # UserWarning on stderr
    path, doc, tmp = theta_config
    path.write_text(json.dumps(dict(doc, tolerances={"hartree_tol": 1e-15})))
    proc = _cli("hartree", "--config", path)
    assert proc.returncode == 0 and proc.stderr == ""


def test_fit_subcommand(theta_config, capsys):
    path, doc, tmp = theta_config
    main(["converge", "--config", str(path)])
    capsys.readouterr()
    rc = main(["fit", str(tmp / "out" / "convergence.csv"), "--t", "0.5",
               "--format", "json"])
    assert rc == 0
    fit = json.loads(capsys.readouterr().out)
    assert fit["slope"] < -0.4
    assert fit["r2"] > 0.9


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mode_system": {}, "state": {}, "n_list": [],
                               "t_list": [], "bogus": 1}))
    assert main(["converge", "--config", str(bad)]) == 2


_LATTICE = {"geometry": "lattice", "potential": {"kind": "contact", "g": 1.0}}


# the lines of the refusals whose wording names a key
_REFUSAL_LINES = {
    "krylov-tol": "config error: tolerances: unknown keys ['krylov_tol']",
    "krylov-tol-string": "config error: tolerances: unknown keys ['krylov_tol']",
    "h-int": "config error: mode_system.h: expected a square list of lists",
    "h-ragged": "config error: mode_system.h: expected a square list of lists",
    "m-constant": 'config error: state.m: a schedule object needs "schedule": "log"',
    "m-constant-without-m": 'config error: state.m: a schedule object needs "schedule": "log"',
    "m-constant-float": 'config error: state.m: a schedule object needs "schedule": "log"',
    "constant-stray-a": 'config error: state.m: a schedule object needs "schedule": "log"',
}


@pytest.mark.parametrize("keys, value", [
    (["t_list"], ["a"]),
    (["t_list"], [float("nan")]),
    (["tolerances", "krylov_tol"], 1e-3),
    (["tolerances", "hartree_tol"], -1),
    (["mode_system"], dict(_LATTICE, sites=0)),
    (["mode_system"], dict(_LATTICE, sites=float("inf"))),
    (["state", "m"], -1),
    (["state", "phi"], [[1, 0]]),
    (["state", "phi"], [[float("nan"), 0], [1, 0]]),
    (["mode_system", "h"], [[0, -1], [1, 0]]),
    (["mode_system"], dict(_LATTICE, sites=2, hopping=float("nan"))),
    (["mode_system"], dict(_LATTICE, sites=2, hopping=float("inf"))),
    (["t_list"], ["0.5"]),
    (["t_list"], [True]),
    (["seed"], 1.7),
    (["seed"], "5"),
    (["seed"], True),
    (["state", "m"], True),
    (["state", "m"], {"schedule": "constant", "m": 1.5}),
    (["mode_system"], dict(_LATTICE, sites=2.7)),
    (["mode_system"], dict(_LATTICE, sites=2.0)),
    (["mode_system"], dict(_LATTICE, sites="2")),
    (["mode_system"], dict(_LATTICE, sites=2, hopping=True)),
    (["mode_system"], dict(_LATTICE, sites=2, hopping="2")),
    (["mode_system"], dict(_LATTICE, sites=2, potential={"kind": "contact", "g": "1.5"})),
    (["mode_system"], dict(_LATTICE, sites=2, potential={"kind": "gaussian", "g": 1.0,
                                                         "sigma": "0.5"})),
    (["mode_system", "v"], [["1", "0"], ["0", "1"]]),
    (["mode_system", "v"], [[True, 0], [0, 1]]),
    (["mode_system", "h"], [[0, True], [True, 0]]),
    (["state", "excitation_seed"], "abc"),
    (["state", "excitation_seed"], -1),
    (["state", "excitation_seed"], 1.5),
    (["tolerances", "hartree_tol"], "1e-12"),
    (["tolerances", "hartree_tol"], True),
    (["tolerances", "krylov_tol"], "1e-12"),
    (["state", "m"], {"schedule": "log", "a": "0.3"}),
    (["state", "m"], {"schedule": "log", "a": False}),
    (["state", "m"], {"schedule": "constant", "a": 0.3}),
    (["output", "dir"], None),
    (["output", "dir"], 5),
    (["output", "dir"], [1]),
    (["mode_system"], dict(_LATTICE, sites=2, potential={"kind": "contact", "g": 1.0,
                                                         "sigma": 5.0})),
    (["mode_system"], dict(_LATTICE, sites=2, potential={"kind": "neighbor", "g": 1.0,
                                                         "sigma": 5.0})),
    (["mode_system"], dict(_LATTICE, sites=2, potential={"kind": "gaussian", "g": 1.0,
                                                         "sigma": 0})),
    (["mode_system"], dict(_LATTICE, sites=2, potential={"kind": "gaussian", "g": 1.0,
                                                         "sigma": -1})),
    (["mode_system"], dict(_LATTICE, sites=True)),
    (["mode_system", "h"], 5),
    (["mode_system", "h"], [[1, 0], [0]]),
    (["state", "m"], {"schedule": "constant", "m": 1}),
    (["state", "m"], {"schedule": "constant"}),
], ids=["t-string", "t-nan", "krylov-tol", "hartree-tol", "zero-sites", "inf-sites",
        "negative-m", "phi-length", "phi-nan", "non-hermitian-h", "nan-hopping",
        "inf-hopping", "t-numeric-string", "t-bool", "seed-float",
        "seed-string", "seed-bool", "m-bool", "m-constant-float", "sites-float",
        "sites-integral-float", "sites-string", "hopping-bool", "hopping-string",
        "g-string", "sigma-string", "v-strings", "v-bool", "h-bool",
        "excitation-seed-string", "excitation-seed-negative", "excitation-seed-float",
        "hartree-tol-string", "hartree-tol-bool", "krylov-tol-string",
        "log-a-string", "log-a-bool", "constant-stray-a", "dir-null", "dir-int",
        "dir-list", "contact-sigma", "neighbor-sigma", "gaussian-sigma-zero",
        "gaussian-sigma-negative", "sites-bool", "h-int", "h-ragged", "m-constant",
        "m-constant-without-m"])
def test_malformed_config_exits_2_with_one_line(request, theta_config, capsys, keys, value):
    path, doc, tmp = theta_config
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path.write_text(json.dumps(doc))
    assert main(["converge", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    message = _REFUSAL_LINES.get(request.node.callspec.id)
    assert message is None or err == [message]


def _superposition_doc(kind, phis, coeffs=(1, 1), ms=None):
    comps = [{"phi": phi, "coeff": c} for phi, c in zip(phis, coeffs)]
    for comp, m in zip(comps, ms or ()):
        comp["m"] = m
    return {
        "mode_system": {"geometry": "dense", "h": [[0, -1], [-1, 0]],
                        "v": [[1, 0], [0, 1]]},
        "state": {"family": "superposition", "kind": kind, "components": comps},
        "n_list": [10, 12], "t_list": [0.5], "seed": 1,
    }


_E0, _E1 = [[1, 0], [0, 0]], [[0, 0], [1, 0]]
_PHI_A, _PHI_B = [[0.8, 0], [0.36, 0.48]], [[0.6, 0], [0.8, 0]]


def _with_component_key(doc, key, value):
    doc["state"]["components"][0][key] = value
    return doc


@pytest.mark.parametrize("doc", [
    _superposition_doc("theta", [_E0, _E1], ms=[1, 0]),
    dict(_superposition_doc("theta", [_E0, _E1], ms=[{"schedule": "log", "a": 0.45}, 1]),
         n_list=[10, 50]),
    _superposition_doc("product", [[[0.5, 0], [0, 0]], _E1]),
    _superposition_doc("theta", [_E0, [[0, 0], [2, 0]]]),
    _superposition_doc("coherent", [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]),
    _superposition_doc("product", [_E0, [[0, 1], [0, 0]]]),
    _superposition_doc("theta", [_E0, _E0]),
    _superposition_doc("coherent", [_E1, _E1]),
    _superposition_doc("product", [_E0, _E1], coeffs=[0, [0, 0]]),
    dict(_superposition_doc("theta", [_E0, _E1], ms=[1, 1]), seed=-1),
    dict(_superposition_doc("product", [_E0, _E1]), n_list=[True, 2]),
    _superposition_doc("product", [_E0, _E1], ms=[7, 0]),
    _superposition_doc("coherent", [_E0, _E1], ms=[1, 1]),
    _with_component_key(_superposition_doc("product", [_E0, _E1]), "excitation_seed", 3),
    _with_component_key(_superposition_doc("coherent", [_E0, _E1]), "excitation_seed", 3),
    _with_component_key(_superposition_doc("theta", [_E0, _E1], ms=[1, 1]),
                        "excitation_seed", 1.7),
    _with_component_key(_superposition_doc("theta", [_E0, _E1], ms=[1, 1]),
                        "excitation_seed", "5"),
    _superposition_doc("product", [_E0, _E1], coeffs=[True, 1]),
    # pass the pairwise checks, fail the Gram floor when the first cell is built
    _superposition_doc("coherent", [_E0, [[1, 0], [1e-8, 0]]]),
    dict(_superposition_doc("product", [_E0, _E1, [[sqrt(0.5), 0], [sqrt(0.5), 0]]],
                            coeffs=(1, 1, 1)), n_list=[1, 2, 3]),
    # a subnormal c^H G c, refused when the first cell is built
    _superposition_doc("product", [_PHI_A, _PHI_B], coeffs=[3e-162, 3e-162]),
    _superposition_doc("product", [_PHI_A, _PHI_B], coeffs=[1e-160, 1e-160]),
], ids=["theta-m-decreasing", "theta-m-decreasing-at-last-n", "product-non-unit",
        "theta-non-unit", "coherent-non-unit", "product-parallel", "theta-parallel",
        "coherent-equal", "zero-coeffs", "negative-seed", "n-bool", "product-m", "coherent-m",
        "product-excitation-seed", "coherent-excitation-seed",
        "component-seed-float", "component-seed-string", "coeff-bool",
        "coherent-close", "product-dependent-span", "subnormal-square-norm",
        "subnormal-square-norm-1e-160"])
def test_malformed_superposition_config_exits_2_with_one_line(tmp_path, capsys, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["superpose", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


def _sweep_config(tmp_path, command, **changes):
    """A small valid config for ``command``, written to tmp_path."""
    doc = _superposition_doc("product", [_E0, _E1])
    if command != "superpose":
        doc["state"] = {"family": "product", "phi": _E0}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc | changes))
    return path


@pytest.mark.parametrize("argv", [
    ["check", "--seed", "-1"],
    ["converge", "--threads", "0"],
    ["converge", "--threads", "-2"],
    ["superpose", "--threads", "0"],
    ["superpose", "--threads", "-2"],
], ids=["check-seed", "converge-threads-0", "converge-threads-negative",
        "superpose-threads-0", "superpose-threads-negative"])
def test_bad_flag_values_exit_2_with_one_line(tmp_path, capsys, argv):
    if argv[0] != "check":
        argv = argv + ["--config", str(_sweep_config(tmp_path, argv[0])),
                       "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


@pytest.mark.parametrize("command, via", [
    ("check", "--out"), ("converge", "--out"), ("superpose", "--out"),
    ("hartree", "--out"), ("converge", "output.dir"),
])
def test_output_path_naming_a_file_exits_2_with_one_line(tmp_path, capsys, command, via):
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = [command]
    if command != "check":
        changes = {"output": {"dir": str(taken)}} if via == "output.dir" else {}
        argv += ["--config", str(_sweep_config(tmp_path, command, **changes))]
    if via == "--out":
        argv += ["--out", str(taken)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


@pytest.mark.parametrize("command, name", [
    ("check", "invariants.json"), ("converge", "convergence.csv"),
    ("superpose", "superposition.csv"), ("hartree", "hartree_trajectory.csv"),
])
def test_a_report_path_taken_by_a_directory_exits_2_with_one_line(
        tmp_path, capsys, monkeypatch, command, name):
    import focklab.cli as cli

    # the report path is tried before the work that fills it: none of it runs
    ran = []
    for work in ("run_invariant_suite", "run_convergence_sweep", "run_superposition_sweep",
                 "evolve_hartree"):
        monkeypatch.setattr(cli, work, lambda *args, work=work, **kwargs: ran.append(work))
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    argv = [command, "--out", str(out)]
    if command != "check":
        argv += ["--config", str(_sweep_config(tmp_path, command))]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: '{out / name}': Is a directory"]
    assert ran == []


def test_a_report_path_is_tried_without_a_trace(tmp_path, monkeypatch):
    # trying a report path leaves no file behind when the run then fails,
    # and an existing report keeps its bytes until it is written again
    import focklab.cli as cli

    def broken(*args, **kwargs):
        raise CapacityError("the work failed")

    monkeypatch.setattr(cli, "run_invariant_suite", broken)
    out = tmp_path / "out"
    assert main(["check", "--out", str(out)]) == 3
    assert list(out.iterdir()) == []
    (out / "invariants.json").write_text("kept")
    assert main(["check", "--out", str(out)]) == 3
    assert (out / "invariants.json").read_text() == "kept"


def test_an_os_error_that_names_no_file_is_not_a_config_error(theta_config, monkeypatch):
    import focklab.cli as cli

    def broken_pipe(*args, **kwargs):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "print", broken_pipe, raising=False)
    path, doc, tmp = theta_config
    with pytest.raises(BrokenPipeError):
        main(["converge", "--config", str(path)])


def _coeff_weights(tmp_path, coeff):
    """The coeff_weights of a two-product sweep on the README's dense system
    whose coefficients are both ``coeff``."""
    path = tmp_path / f"{coeff}.json"
    path.write_text(json.dumps(dict(
        _superposition_doc("product", [_PHI_A, _PHI_B], coeffs=[coeff, coeff]), n_list=[4, 6])))
    out = tmp_path / f"out-{coeff}"
    assert main(["superpose", "--config", str(path), "--out", str(out), "--format", "json"]) == 0
    rows = json.loads((out / "superposition.json").read_text())["rows"]
    return [r["extras"]["coeff_weights"] for r in rows]


def test_a_combination_whose_square_norm_is_normal_keeps_the_weights_of_unit_ones(tmp_path):
    # (1e-150)^2 sums to a normal c^H G c; (3e-162)^2 to a subnormal one,
    # refused with the malformed superpositions above
    assert _coeff_weights(tmp_path, 1e-150) == _coeff_weights(tmp_path, 1)


@pytest.mark.parametrize("case", ["negative-seed", "one-mode-excitation"])
def test_malformed_theta_config_exits_2_with_one_line(theta_config, capsys, case):
    path, doc, tmp = theta_config
    if case == "negative-seed":
        doc["seed"] = -1
    else:
        doc["mode_system"] = {"geometry": "dense", "h": [[0]], "v": [[1]]}
        doc["state"]["phi"] = [[1, 0]]
    path.write_text(json.dumps(doc))
    assert main(["converge", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


@pytest.mark.parametrize("argv", [
    ["hartree", "--config", "CFG", "--format", "json"],
    ["hartree", "--config", "CFG", "--threads", "2"],
    ["check", "--format", "json"],
    ["hartree", "--config", "CFG", "--seed", "3"],
], ids=["hartree-format", "hartree-threads", "check-format", "hartree-seed"])
def test_flags_without_effect_are_rejected(theta_config, argv):
    path, doc, tmp = theta_config
    with pytest.raises(SystemExit) as exc:
        main([str(path) if a == "CFG" else a for a in argv])
    assert exc.value.code == 2


def test_default_hartree_tol_lattice_product_sweep_exits_0(tmp_path):
    # the Hartree norm drift under the default tolerance used to trip the
    # unit-trace check of the projector targets
    doc = {
        "mode_system": dict(_LATTICE, sites=3, hopping=1.0,
                            potential={"kind": "contact", "g": 0.8993472865926964}),
        "state": {"family": "product", "phi": [
            [-0.24480093118271942, -0.09977235571864265],
            [0.9402000481739062, -0.07958666342619151],
            [0.06388342326581244, -0.1890151363693862],
        ]},
        "n_list": [2, 4, 6],
        "t_list": [0.5, 1.0, 2.0],
        "seed": 1,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["converge", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "convergence.csv").read_text().splitlines()) == 10


@pytest.mark.parametrize("n", [4, 40])
def test_near_hermitian_h_sweep_exits_0(tmp_path, n):
    # h is Hermitian only to HERMITICITY_TOL; dGamma(h) scales the defect by
    # sqrt(o_q (o_p + 1)), past the Hermiticity check of the sparse operator
    doc = {
        "mode_system": {"geometry": "dense", "h": [[0, [-1, 9e-13]], [-1, 0]],
                        "v": [[1, 0], [0, 1]]},
        "state": {"family": "product", "phi": [[0.6, 0], [0.8, 0]]},
        "n_list": [n],
        "t_list": [0.5],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["converge", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "convergence.csv").read_text().splitlines()) == 2


def test_invalid_json_exit_code(tmp_path):
    bad = tmp_path / "nonjson.json"
    bad.write_text("{not json")
    assert main(["converge", "--config", str(bad)]) == 2


@pytest.mark.parametrize("command", ["converge", "superpose", "hartree"])
@pytest.mark.parametrize("case", ["missing", "directory", "non-utf8", "nested-arrays",
                                  "nested-objects"])
def test_unreadable_config_exits_2_with_one_line(tmp_path, capsys, command, case):
    path = tmp_path / "config.json"
    if case == "directory":
        path.mkdir()
    elif case == "non-utf8":
        path.write_bytes(b'{"seed": "\xff"}')
    elif case.startswith("nested"):  # too deep for the JSON reader, well under 1 MB
        path.write_text(("[" if case == "nested-arrays" else '{"a": ') * 100_000)
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


_CSV_HEADER = "n,m,t,trace_dist,hs_dist,op_dist,cross_term,bound_envelope,runtime_s\n"


@pytest.mark.parametrize("text", [
    None,
    _CSV_HEADER + "4,1,0.5,abc,0.1,0.1,,,\n",
    _CSV_HEADER + "4,1,0.5,0.1,0.1,0.1,,,\n6,1,0.5,0.05,0.05,0.05,,,\n",
    _CSV_HEADER + "4,1,0.5,0.1,0.1,0.1,,,\n4,1,0.5,0.09,0.09,0.09,,,\n"
    "4,1,0.5,0.08,0.08,0.08,,,\n",
    *(_CSV_HEADER + "6,1,0.5,0.1,0.1,0.1,,,\n10,1,0.5,0.07,0.07,0.07,,,\n"
      f"14,1,0.5,{bad},0.05,0.05,,,\n" for bad in ("nan", "inf", "-0.5")),
], ids=["missing", "non-numeric", "too-few-rows", "one-distinct-n", "nan-distance",
        "inf-distance", "negative-distance"])
def test_unreadable_fit_input_exits_2_with_one_line(tmp_path, capsys, text):
    path = tmp_path / "sweep.csv"
    if text is not None:
        path.write_text(text)
    assert main(["fit", str(path), "--t", "0.5"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


def test_capacity_error_exit_code(theta_config):
    path, doc, tmp = theta_config
    doc = dict(doc)
    doc["state"] = {"family": "coherent", "phi": [[0.8, 0], [0.36, 0.48]]}
    doc["n_list"] = [5000]
    big = tmp / "big.json"
    big.write_text(json.dumps(doc))
    assert main(["converge", "--config", str(big)]) == 3


def test_a_cell_above_the_cap_exits_3_before_any_cell_runs(theta_config, monkeypatch, capsys):
    # on 4 sites fixed(320) holds 5,564,321 states; the n = 120 cell used to
    # run for about 2 s before the sweep reached it
    path, doc, tmp = theta_config
    path.write_text(json.dumps(dict(doc, mode_system=dict(_LATTICE, sites=4),
                                    state={"family": "product", "phi": [1, 0, 0, 0]},
                                    n_list=[120, 320])))

    def unrank(*args):
        raise AssertionError("built a basis")

    monkeypatch.setattr(fock, "unrank", unrank)
    assert main(["converge", "--config", str(path)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "capacity error: n_list: the basis at n=320 has 5564321 entries, cap is 5000000"]


@pytest.mark.parametrize("sites", [10**6, 2237])
def test_lattice_beyond_the_cap_exits_3_before_allocating(theta_config, capsys, sites):
    # h alone would hold sites**2 entries: 14.6 TiB at 10**6 sites
    path, doc, tmp = theta_config
    path.write_text(json.dumps(dict(doc, mode_system=dict(_LATTICE, sites=sites))))
    tracemalloc.start()
    try:
        assert main(["converge", "--config", str(path)]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("capacity error:")


def _cli(*argv):
    """``python -m focklab.cli argv`` in a fresh process, whose stdout also
    carries what C libraries print."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", "focklab.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=30)


def test_coherent_sweep_beyond_the_cap_exits_3_before_the_cutoff_search(theta_config):
    # any basis that holds a cell at n = 1e13 has more than 1e13 states, so
    # the cutoff search refuses it before evaluating a single Poisson tail
    path, doc, tmp = theta_config
    doc = dict(doc, state={"family": "coherent", "phi": doc["state"]["phi"]},
               n_list=[10**13])
    huge = tmp / "huge.json"
    huge.write_text(json.dumps(doc))
    proc = _cli("converge", "--config", huge)
    assert proc.returncode == 3
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("capacity error:")


@pytest.mark.parametrize("row", ["0,0,0.5,0.1,0.1,0.1,,,", "4,-1,0.5,0.1,0.1,0.1,,,"],
                         ids=["n-zero", "m-negative"])
def test_fit_input_with_n_below_1_or_m_below_0_exits_2_with_one_line(tmp_path, row):
    # an n = 0 row used to reach the fit: a numpy warning on stderr, LAPACK
    # DLASCL lines on stdout, then "SVD did not converge"
    path = tmp_path / "sweep.csv"
    path.write_text(_CSV_HEADER + row + "\n6,1,0.5,0.07,0.07,0.07,,,\n"
                    "10,1,0.5,0.05,0.05,0.05,,,\n")
    proc = _cli("fit", path, "--t", "0.5")
    assert proc.returncode == 2 and proc.stdout == ""
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {path} line 2:")


def test_repeated_time_rows_are_not_points_of_the_fit(theta_config, capsys):
    # two distinct n, each row written twice, once fitted to slope -0.97
    path, doc, tmp = theta_config
    path.write_text(json.dumps(dict(doc, n_list=[4, 8], t_list=[0.5, 0.5])))
    assert main(["converge", "--config", str(path), "--format", "json"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "t=0.5: no fit (fewer than 3 distinct n or a non-finite distance)"]
    report = json.loads((tmp / "out" / "convergence.json").read_text())
    assert report["fits"] == {"0.5": None} and len(report["rows"]) == 4


def _uniform_kernel_config(theta_config, g, t):
    # A uniform kernel (a gaussian far wider than the lattice) adds the same
    # energy to every state of a sector, so H - D holds no interaction and the
    # config passes the Chebyshev bound; the mean-field phase turns at rate g.
    path, doc, tmp = theta_config
    path.write_text(json.dumps(dict(doc, mode_system=dict(
        _LATTICE, sites=3, hopping=1.0,
        potential={"kind": "gaussian", "g": g, "sigma": 1e10}),
        state={"family": "product", "phi": [[0.6, 0], [0.0, 0.8], [0, 0]]}, t_list=[t])))
    return path


def test_huge_pair_strength_fails_in_one_line(theta_config):
    # the integrator used to blow up after 20 lines of numpy warnings, then in
    # one line; the bound on the integrator's steps refuses it before it starts
    # (``tests/test_hartree.py`` keeps the integrator's own one-line failure)
    proc = _cli("converge", "--config", _uniform_kernel_config(theta_config, 8e307, 0.5))
    assert proc.returncode == 3
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "capacity error: t_list: t=0.5 asks the mean-field integrator for |t s| = 4e+307")


def test_a_stiff_mean_field_is_refused_at_once(theta_config):
    # g = 1e4 at t = 1 took 11 s of DOP853 steps: |t s| = 1e4 + 4, s adding the
    # absolute row sum 4 of h to the largest |v|
    path = _uniform_kernel_config(theta_config, 1e4, 1.0)
    start = time.perf_counter()
    proc = _cli("converge", "--config", path)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 3 and proc.stdout == ""
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "capacity error: t_list: t=1.0 asks the mean-field integrator for |t s| = 1e+04")


def test_a_subnormal_hopping_runs_without_warnings(theta_config):
    # the plan used to divide by the subnormal half-width of H - D, and numpy
    # printed an overflow and an invalid-value warning
    path, doc, tmp = theta_config
    path.write_text(json.dumps(dict(doc, mode_system={
        "geometry": "dense", "h": [[0, 2e-311], [2e-311, 0]], "v": [[0, 0], [0, 0]]},
        state={"family": "product", "phi": [[0.6, 0], [0.8, 0]]}, n_list=[2, 3, 4])))
    proc = _cli("converge", "--config", path)
    assert proc.returncode == 0 and proc.stderr == ""


@pytest.mark.parametrize("command, state, n_list", [
    ("converge", {"family": "product", "phi": [0.6, 0.8]}, [2000, 2100]),
    ("superpose", {"family": "superposition", "kind": "product", "components": [
        {"phi": [0.6, 0.8], "coeff": 1.0}, {"phi": [0.8, 0.6], "coeff": 1.0}]}, [2100]),
], ids=["product", "superposition"])
def test_a_non_finite_closed_form_state_fails_as_itself(theta_config, command, state, n_list):
    # at n = 2100 on 2 modes the closed form of phi^(x)n overflows a float; the
    # product sweep used to print two numpy warnings and exit 1 with a NaN norm
    # defect, the superposition to exit 2 calling its Gram matrix singular
    path, doc, tmp = theta_config
    path.write_text(json.dumps(dict(doc, mode_system=dict(_LATTICE, sites=2), state=state,
                                    n_list=n_list)))
    proc = _cli(command, "--config", path)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: theta state at n=2100, m=0 is not finite: a float overflows"]
    assert list((tmp / "out").glob("*.csv")) == []


def test_huge_contact_strength_is_refused_before_integrating(theta_config):
    # a contact kernel of 8e307 spreads H's diagonal within a sector past any
    # float, so no time t > 0 keeps |t r| finite
    path, doc, tmp = theta_config
    path.write_text(json.dumps(dict(doc, mode_system=dict(
        _LATTICE, sites=3, hopping=1.0, potential={"kind": "contact", "g": 8e307}),
        state={"family": "product", "phi": [[0.6, 0], [0.0, 0.8], [0, 0]]})))
    proc = _cli("converge", "--config", path)
    assert proc.returncode == 3
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("capacity error: t_list: t=0.5 at n=4")


@pytest.mark.parametrize("mode_system, phi", [
    (dict(_LATTICE, sites=3, hopping=1.0, potential={"kind": "contact", "g": 1e308}),
     [0.6, 0.8, 0.0]),
    ({"geometry": "dense", "h": [[0, -1], [-1, 0]], "v": [[1e308, 0], [0, 1e308]]},
     [0.6, 0.8]),
], ids=["contact", "dense-v"])
def test_a_kernel_at_the_float_limit_meets_the_time_guard(theta_config, mode_system, phi):
    # finite kernel values of 1e308 are kept as given, so a config with them
    # is refused for its work, not for its input
    path, doc, tmp = theta_config
    path.write_text(json.dumps(dict(doc, mode_system=mode_system, n_list=[2, 3, 4],
                                    state={"family": "product", "phi": phi})))
    proc = _cli("converge", "--config", path)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "capacity error: t_list: t=0.5 at n=2 asks for |t r| = 2.5e+307 above 10000"]


def test_a_gaussian_width_whose_square_underflows_sweeps_as_contact(theta_config):
    # 2 sigma^2 = 0 made the kernel 0/0 at distance 0; it is g I
    path, doc, tmp = theta_config
    lattice = dict(_LATTICE, sites=3, potential={"kind": "gaussian", "g": 1.0, "sigma": 1e-170})
    for name, ms in (("gaussian", lattice), ("contact", dict(_LATTICE, sites=3))):
        path.write_text(json.dumps(dict(doc, mode_system=ms, n_list=[2, 3, 4], t_list=[0.5],
                                        state={"family": "product", "phi": [0.6, 0.8, 0.0]})))
        assert main(["converge", "--config", str(path), "--out", str(tmp / name)]) == 0
    assert ((tmp / "gaussian" / "convergence.csv").read_bytes()
            == (tmp / "contact" / "convergence.csv").read_bytes())


@pytest.mark.parametrize("mode_system, state, n_list, t_list", [
    (dict(_LATTICE, sites=2, potential={"kind": "contact", "g": 5e307}),
     {"family": "product", "phi": [0.6, 0.8]}, [2, 3], [0.0]),
    ({"geometry": "dense", "h": [[1e308, 0], [0, 0]], "v": [[0, 0], [0, 0]]},
     {"family": "theta", "phi": [0.6, 0.8], "m": 1}, [4], [0.0]),
    (dict(_LATTICE, sites=3, hopping=5e307),
     {"family": "coherent", "phi": [0.6, 0.8, 0.0]}, [3], [0.0, 0.0]),
    (dict(_LATTICE, sites=2, hopping=4e307, potential={"kind": "contact", "g": 0.0}),
     {"family": "product", "phi": [0.6, 0.8]}, [2], [0.0]),
    (dict(_LATTICE, sites=3, hopping=1.0, potential={"kind": "contact", "g": 1e308}),
     {"family": "product", "phi": [0.6, 0.8, 0.0]}, [2, 3, 4], [0.0]),
    ({"geometry": "dense", "h": [[0, -1], [-1, 0]], "v": [[1e308, 0], [0, 1e308]]},
     {"family": "product", "phi": [0.6, 0.8]}, [2, 3], [0.0]),
], ids=["contact", "dense-h", "hopping-3-sites", "hopping-gershgorin", "contact-1e308",
        "dense-v-1e308"])
def test_a_hamiltonian_that_overflows_is_refused_before_any_cell(
        theta_config, mode_system, state, n_list, t_list):
    # at t = 0 both radius checks pass whatever the radius; the first three
    # used to exit 1 with a traceback from an inf - inf entry of H ("not
    # Hermitian"), the last, whose H is finite but its Gershgorin interval not,
    # from the Bessel series of 0 * inf; the last two, kernels at the float
    # limit, were refused as "h and v must have finite entries" when
    # (v + v.T) / 2 overflowed
    path, doc, tmp = theta_config
    path.write_text(json.dumps(dict(doc, mode_system=mode_system, state=state,
                                    n_list=n_list, t_list=t_list)))
    proc = _cli("converge", "--config", path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"config error: mode_system: the Hamiltonian at n={n_list[0]} overflows a float"]
    assert not (tmp / "out").exists()


def test_a_coherent_cat_state_sweeps(tmp_path):
    # phi and -phi are distinct coherent components whose mean-field targets
    # coincide; their mixture fit has no unique solution
    c = 1 / sqrt(2)
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({
        "mode_system": dict(_LATTICE, sites=3),
        "state": {"family": "superposition", "kind": "coherent", "components": [
            {"phi": [0.6, 0.8, 0.0], "coeff": c}, {"phi": [-0.6, -0.8, 0.0], "coeff": c}]},
        "n_list": [2, 3, 4], "t_list": [0.0, 0.5],
        "output": {"dir": str(tmp_path / "out"), "format": "json"}}))
    assert main(["superpose", "--config", str(path)]) == 0
    rows = json.loads((tmp_path / "out" / "superposition.json").read_text())["rows"]
    assert len(rows) == 6
    for r in rows:  # the two coinciding targets share the fit evenly
        w = r["extras"]["fitted_weights"]
        assert w[0] == pytest.approx(w[1], abs=1e-12)
        assert r["t"] > 0 or w == pytest.approx([0.5, 0.5], abs=1e-12)


@pytest.mark.parametrize("t", [1e7, 1e300])
def test_huge_time_exits_3_at_once(theta_config, t):
    # t = 1e7 on 3 sites used to run for hours: about 24 mean-field steps per
    # unit time, then a Chebyshev series of about 7e8 terms
    path, doc, tmp = theta_config
    path.write_text(json.dumps(dict(doc, mode_system=dict(_LATTICE, sites=3, hopping=1.0),
                                    state={"family": "coherent",
                                           "phi": [[0.6, 0], [0.0, 0.8], [0, 0]]},
                                    n_list=[2, 3, 4], t_list=[t])))
    start = time.perf_counter()
    proc = _cli("converge", "--config", path)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 3 and proc.stdout == ""
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith(f"capacity error: t_list: t={t} at n=2")


def test_negative_zero_time_is_written_as_zero(theta_config):
    # float("-0.0") used to reach the CSV rows and the fit lines as -0.0
    path, doc, tmp = theta_config
    path.write_text(json.dumps(dict(doc, mode_system=dict(_LATTICE, sites=3, hopping=1.0),
                                    state={"family": "coherent",
                                           "phi": [[0.6, 0], [0.0, 0.8], [0, 0]]},
                                    n_list=[2, 3, 4], t_list=[-0.0, 0.5])))
    proc = _cli("converge", "--config", path)
    assert proc.returncode == 0 and "t=0.0: exact regime" in proc.stdout
    rows = (tmp / "out" / "convergence.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["0.0", "0.5"] * 3


def test_check_negative_exit_is_one(monkeypatch, capsys):
    # force a failing suite through the public entry point
    import focklab.cli as cli

    class FakeReport:
        passed = False

        def summary(self):
            return "[FAIL] forced"

        def to_json(self, path=None):
            return {}

    monkeypatch.setattr(cli, "run_invariant_suite",
                        lambda level, rng_seed: FakeReport())
    assert main(["check", "--level", "quick"]) == 1


def test_product_state_is_the_theta_state_with_m_0_end_to_end(theta_config):
    # the condensate phi^(x)n is theta_{n,0}: the sweeps write the same bytes
    path, doc, tmp = theta_config
    csvs = []
    for i, state in enumerate(({"family": "product", "phi": doc["state"]["phi"]},
                               dict(doc["state"], m=0))):
        cfg = tmp / f"config{i}.json"
        cfg.write_text(json.dumps(dict(doc, state=state, t_list=[0.0, 0.5, 1.0])))
        assert main(["converge", "--config", str(cfg), "--out", str(tmp / str(i))]) == 0
        csvs.append((tmp / str(i) / "convergence.csv").read_bytes())
    assert csvs[0] == csvs[1]
    assert len(csvs[0].splitlines()) == 10
