"""Subcommands, exit codes, and output files of the command-line driver."""

import json
from math import sqrt

import pytest

from focklab.cli import main


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
], ids=["t-string", "t-nan", "krylov-tol", "hartree-tol", "zero-sites", "inf-sites",
        "negative-m", "phi-length", "phi-nan", "non-hermitian-h", "nan-hopping",
        "inf-hopping", "t-numeric-string", "t-bool", "seed-float",
        "seed-string", "seed-bool", "m-bool", "m-constant-float", "sites-float",
        "sites-integral-float", "sites-string", "hopping-bool", "hopping-string",
        "g-string", "sigma-string", "v-strings", "v-bool", "h-bool",
        "excitation-seed-string", "excitation-seed-negative", "excitation-seed-float",
        "hartree-tol-string", "hartree-tol-bool", "krylov-tol-string",
        "log-a-string", "log-a-bool", "constant-stray-a", "dir-null", "dir-int",
        "dir-list"])
def test_malformed_config_exits_2_with_one_line(theta_config, capsys, keys, value):
    path, doc, tmp = theta_config
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path.write_text(json.dumps(doc))
    assert main(["converge", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


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
], ids=["theta-m-decreasing", "theta-m-decreasing-at-last-n", "product-non-unit",
        "theta-non-unit", "coherent-non-unit", "product-parallel", "theta-parallel",
        "coherent-equal", "zero-coeffs", "negative-seed", "n-bool", "product-m", "coherent-m",
        "product-excitation-seed", "coherent-excitation-seed",
        "component-seed-float", "component-seed-string", "coeff-bool",
        "coherent-close", "product-dependent-span"])
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
], ids=["hartree-format", "hartree-threads", "check-format"])
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
@pytest.mark.parametrize("case", ["missing", "directory", "non-utf8"])
def test_unreadable_config_exits_2_with_one_line(tmp_path, capsys, command, case):
    path = tmp_path / "config.json"
    if case == "directory":
        path.mkdir()
    elif case == "non-utf8":
        path.write_bytes(b'{"seed": "\xff"}')
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


_CSV_HEADER = "n,m,t,trace_dist,hs_dist,op_dist,cross_term,bound_envelope,runtime_s\n"


@pytest.mark.parametrize("text", [
    None,
    _CSV_HEADER + "4,1,0.5,abc,0.1,0.1,,,\n",
    _CSV_HEADER + "4,1,0.5,0.1,0.1,0.1,,,\n6,1,0.5,0.05,0.05,0.05,,,\n",
], ids=["missing", "non-numeric", "too-few-rows"])
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
