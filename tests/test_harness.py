"""Config validation, sweeps, rate fitting, persistence, invariant suite."""

import json
from math import sqrt

import numpy as np
import pytest
from scipy.special import pdtrc

import focklab as fl
from focklab import harness
from focklab.harness import (
    CSV_HEADER,
    ConvergenceReport,
    SweepRow,
    merge_reports,
    report_from_csv,
)
from focklab.invariants import run_invariant_suite
from focklab.states import POISSON_TAIL_FLOOR, _poisson_cutoff
from focklab.tolerances import EXACT_REGIME_TOL


def _theta_doc(n_list=(4, 6, 8), t_list=(0.5,), m=1, v=None):
    return {
        "mode_system": {
            "geometry": "dense",
            "h": [[0, -1], [-1, 0]],
            "v": v if v is not None else [[1, 0], [0, 1]],
        },
        "state": {"family": "theta", "phi": [[0.8, 0], [0.36, 0.48]],
                  "m": m, "excitation_seed": 0},
        "n_list": list(n_list),
        "t_list": list(t_list),
        "tolerances": {"hartree_tol": 1e-12},
        "seed": 7,
    }


def _superposition_doc(kind="product", n_list=(4, 6, 8)):
    c = 1 / sqrt(2)
    return {
        "mode_system": {
            "geometry": "dense",
            "h": [[0, -1], [-1, 0]],
            "v": [[1, 0], [0, 1]],
        },
        "state": {
            "family": "superposition",
            "kind": kind,
            "components": [
                {"phi": [[1, 0], [0, 0]], "coeff": [c, 0]},
                {"phi": [[0.5, 0], [0.8660254037844386, 0]], "coeff": [c, 0]},
            ],
        },
        "n_list": list(n_list),
        "t_list": [0.5],
        "tolerances": {"hartree_tol": 1e-12},
        "seed": 7,
    }


# ---------------------------------------------------------------------------
# config parsing


def test_unknown_top_level_key_rejected():
    doc = _theta_doc()
    doc["typo_key"] = 1
    with pytest.raises(fl.ConfigError):
        fl.ExperimentConfig.from_dict(doc)


def test_unknown_nested_key_rejected():
    doc = _theta_doc()
    doc["state"]["phii"] = [[1, 0]]
    with pytest.raises(fl.ConfigError):
        fl.ExperimentConfig.from_dict(doc)


def test_n_list_must_increase():
    doc = _theta_doc(n_list=(8, 6, 4))
    with pytest.raises(fl.ConfigError):
        fl.ExperimentConfig.from_dict(doc)


def test_theta_m_admissibility_checked():
    component = _superposition_doc(kind="theta", n_list=(4, 6))
    for comp, m in zip(component["state"]["components"], (0, 3)):
        comp["m"] = m
    for doc in (_theta_doc(n_list=(4, 6), m=3), component):  # admissible_m(4) = 1
        with pytest.raises(fl.ConfigError):
            fl.ExperimentConfig.from_dict(doc)


def test_log_schedule_exponent_caps():
    doc = _theta_doc()
    doc["state"]["m"] = {"schedule": "log", "a": 1.5}
    with pytest.raises(fl.ConfigError):
        fl.ExperimentConfig.from_dict(doc)
    doc["state"]["m"] = {"schedule": "log", "a": 0.5}
    cfg = fl.ExperimentConfig.from_dict(doc)
    assert cfg.components[0].m_schedule.value(8) <= fl.admissible_m(8)


def test_log_schedule_rounds_and_clamps():
    from focklab.harness import MSchedule
    from math import log

    sched = MSchedule(kind="log", a=0.9)
    for n in (4, 10, 100, 10000):
        want = max(0, min(int(round(0.9 * log(n))), fl.admissible_m(n)))
        assert sched.value(n) == want
    # at n=2 the rounded value (1) exceeds admissible_m(2) = 0 and is clamped
    assert fl.admissible_m(2) == 0
    assert sched.value(2) == 0


def test_superposition_log_schedule_stricter_cap():
    doc = _superposition_doc(kind="theta")
    for comp in doc["state"]["components"]:
        comp["m"] = {"schedule": "log", "a": 0.6}
    with pytest.raises(fl.ConfigError):
        fl.ExperimentConfig.from_dict(doc)


def test_unnormalized_phi_rejected():
    doc = _theta_doc()
    doc["state"]["phi"] = [[1, 0], [1, 0]]
    with pytest.raises(fl.ConfigError):
        fl.ExperimentConfig.from_dict(doc)


def test_seed_override_changes_hash():
    a = fl.ExperimentConfig.from_dict(_theta_doc())
    b = fl.ExperimentConfig.from_dict(_theta_doc(), seed_override=99)
    assert a.config_hash != b.config_hash
    assert b.seed == 99


def test_config_hash_ignores_output():
    a, b = _theta_doc(), _theta_doc()
    a["output"] = {"dir": "run1", "format": "csv"}
    b["output"] = {"dir": "elsewhere/run2", "format": "json"}
    hashes = {fl.ExperimentConfig.from_dict(doc).config_hash
              for doc in (a, b, _theta_doc())}
    assert len(hashes) == 1


def test_config_capacity_guard():
    doc = _theta_doc()
    doc["state"] = {"family": "coherent", "phi": [[0.8, 0], [0.36, 0.48]]}
    doc["n_list"] = [4000]
    cfg = fl.ExperimentConfig.from_dict(doc)
    with pytest.raises(fl.CapacityError):
        fl.run_convergence_sweep(cfg)


# ---------------------------------------------------------------------------
# rate fitting


def _synthetic_report(dist_fn, ns=(4, 8, 16, 32)):
    rows = [
        SweepRow(n=n, m=0, t=1.0, trace_dist=dist_fn(n), hs_dist=0.0, op_dist=0.0)
        for n in ns
    ]
    return ConvergenceReport(config_hash="x", family="product", seed=0, rows=rows)


def test_fit_exact_inverse_law():
    fit = fl.fit_rate(_synthetic_report(lambda n: 1.0 / n), 1.0)
    assert fit.slope == pytest.approx(-1.0, abs=1e-6)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_recovers_intercept():
    fit = fl.fit_rate(_synthetic_report(lambda n: 3.0 / sqrt(n)), 1.0)
    assert fit.slope == pytest.approx(-0.5, abs=1e-9)
    assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-9)


def test_fit_refuses_exact_regime():
    with pytest.raises(fl.ExactRegimeError):
        fl.fit_rate(_synthetic_report(lambda n: 0.0), 1.0)


def test_fit_needs_three_rows():
    with pytest.raises(ValueError):
        fl.fit_rate(_synthetic_report(lambda n: 1.0 / n, ns=(4, 8)), 1.0)


def test_merge_rejects_mixed_configs():
    a = _synthetic_report(lambda n: 1.0 / n)
    b = ConvergenceReport(config_hash="y", family="product", seed=0, rows=a.rows)
    with pytest.raises(fl.ConfigError):
        merge_reports([a, b])
    merged = merge_reports([a, a])
    assert len(merged.rows) == 2 * len(a.rows)


# ---------------------------------------------------------------------------
# sweeps and persistence


def test_theta_sweep_rows_and_envelope():
    cfg = fl.ExperimentConfig.from_dict(_theta_doc())
    rep = fl.run_convergence_sweep(cfg)
    assert [(r.n, r.t) for r in rep.rows] == [(4, 0.5), (6, 0.5), (8, 0.5)]
    for r in rep.rows:
        assert r.m == 1
        assert r.op_dist <= r.hs_dist <= r.trace_dist
        assert r.bound_envelope == pytest.approx(
            r.trace_dist * sqrt(r.n) * np.exp(-0.5) / 2**7
        )
        assert r.cross_term is None


def test_sweep_is_deterministic_and_csv_byte_identical(tmp_path):
    cfg = fl.ExperimentConfig.from_dict(_theta_doc())
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    fl.run_convergence_sweep(cfg).to_csv(p1)
    fl.run_convergence_sweep(cfg).to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_schema_and_reload(tmp_path):
    cfg = fl.ExperimentConfig.from_dict(_theta_doc())
    rep = fl.run_convergence_sweep(cfg)
    path = tmp_path / "sweep.csv"
    rep.to_csv(path)
    text = path.read_text()
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    assert text.endswith("\n") and "\r" not in text
    back = report_from_csv(path)
    assert len(back.rows) == len(rep.rows)
    for a, b in zip(back.rows, sorted(rep.rows, key=lambda r: (r.n, r.t))):
        assert a.trace_dist == b.trace_dist  # shortest round-trip floats
        assert a.runtime_s is None  # blanked in the reproducibility reference


def test_runtime_column_blank_only_in_single_thread(tmp_path):
    cfg = fl.ExperimentConfig.from_dict(_theta_doc())
    rep = fl.run_convergence_sweep(cfg, threads=2)
    assert not rep.reproducible
    path = tmp_path / "threaded.csv"
    rep.to_csv(path)
    last = path.read_text().splitlines()[-1].split(",")
    assert last[-1] != ""


def test_json_report_embeds_config_hash(tmp_path):
    cfg = fl.ExperimentConfig.from_dict(_theta_doc())
    rep = fl.run_convergence_sweep(cfg)
    doc = rep.to_json(tmp_path / "sweep.json")
    assert doc["config_hash"] == cfg.config_hash
    assert all(row["config_hash"] == cfg.config_hash for row in doc["rows"])


def test_targets_are_built_once_per_time(monkeypatch):
    # the mean-field target depends on t alone, not on the cell's n
    calls = []

    def counting(weights, phis):
        calls.append(len(phis))
        return fl.mixed_target(weights, phis)

    monkeypatch.setattr(harness, "mixed_target", counting)
    rep = fl.run_convergence_sweep(fl.ExperimentConfig.from_dict(
        _theta_doc(n_list=(4, 6, 8), t_list=(0.5, 1.0))))
    assert len(rep.rows) == 6
    assert calls == [1, 1]


def test_json_rows_carry_the_csv_columns_in_order():
    for rep in (fl.run_convergence_sweep(fl.ExperimentConfig.from_dict(_theta_doc())),
                fl.run_superposition_sweep(fl.ExperimentConfig.from_dict(
                    _superposition_doc()), threads=2)):
        for row in rep.to_json()["rows"]:
            assert list(row) == CSV_HEADER + ["config_hash", "extras"]
            assert (row["runtime_s"] is None) == rep.reproducible


def test_csv_reload_keeps_every_superposition_column(tmp_path):
    rep = fl.run_superposition_sweep(fl.ExperimentConfig.from_dict(_superposition_doc()))
    rep.to_csv(tmp_path / "sweep.csv")
    back = report_from_csv(tmp_path / "sweep.csv")
    assert len(back.rows) == len(rep.rows) == 3
    for a, b in zip(back.rows, sorted(rep.rows, key=lambda r: (r.n, r.t))):
        assert [getattr(a, key) for key in CSV_HEADER] == \
            [getattr(b, key) for key in CSV_HEADER[:-1]] + [None]
        assert a.cross_term > 0
        assert a.bound_envelope is None and a.runtime_s is None


def _distances(rep):
    return {(r.n, r.t): (r.trace_dist, r.hs_dist, r.op_dist) for r in rep.rows}


@pytest.mark.parametrize("family", ["theta", "superposition-coherent"])
def test_results_ignore_threads_and_time_order(family):
    times = [0.25, 0.5, 1.0]
    if family == "theta":
        doc, sweep = _theta_doc(t_list=times), fl.run_convergence_sweep
    else:
        doc, sweep = _superposition_doc(kind="coherent", n_list=(2, 3)), \
            fl.run_superposition_sweep
        doc["t_list"] = times
    ref = _distances(sweep(fl.ExperimentConfig.from_dict(doc)))
    assert len(ref) == 3 * len(doc["n_list"])
    threaded = sweep(fl.ExperimentConfig.from_dict(doc), threads=2)
    assert _distances(threaded) == ref
    doc["t_list"] = times[::-1]
    assert _distances(sweep(fl.ExperimentConfig.from_dict(doc))) == ref


def test_repeated_zero_and_unordered_times_match_each_time_once():
    # the sweep evolves each time on from the previous one; a repeated time
    # is a step of 0 and the order of t_list does not matter
    doc = _superposition_doc(kind="coherent", n_list=(2, 3))
    doc["t_list"] = [0.0, 0.5, 1.0]
    ref = fl.run_superposition_sweep(fl.ExperimentConfig.from_dict(doc))
    doc["t_list"] = [1.0, 0.5, 0.0, 1.0, 0.5]
    got = fl.run_superposition_sweep(fl.ExperimentConfig.from_dict(doc))
    assert len(got.rows) == 10
    assert _distances(got) == _distances(ref)


def test_single_family_excitation_ignores_excitation_seed():
    # the key is hashed, but the draw is keyed by (seed, m) alone
    a, b = _theta_doc(), _theta_doc()
    b["state"]["excitation_seed"] = 12345
    cfg_a, cfg_b = (fl.ExperimentConfig.from_dict(doc) for doc in (a, b))
    assert cfg_a.config_hash != cfg_b.config_hash
    assert _distances(fl.run_convergence_sweep(cfg_a)) == \
        _distances(fl.run_convergence_sweep(cfg_b))


@pytest.mark.parametrize("family", ["product", "coherent", "theta"])
def test_single_family_cell_matches_direct_construction(family):
    # a single family runs as a one-component mixture: the same basis, the
    # excitation drawn from (seed, m), the projection on the Hartree state
    # (three modes, so that the excitation depends on its seed)
    n, t, phi = 4, 0.5, np.array([0.6, 0.8j, 0.0])
    doc = _theta_doc(n_list=(n,), t_list=(t,))
    doc["mode_system"] = {"geometry": "lattice", "sites": 3,
                          "potential": {"kind": "gaussian", "g": 1.0, "sigma": 0.5}}
    doc["state"] = {"family": family, "phi": [[0.6, 0], [0, 0.8], [0, 0]]}
    if family == "theta":
        doc["state"]["m"] = 1
    cfg = fl.ExperimentConfig.from_dict(doc)
    (row,) = fl.run_convergence_sweep(cfg).rows
    if family == "coherent":
        basis = fl.enumerate_basis(3, fl.truncated(_poisson_cutoff(n)))
        state = fl.coherent_state(phi, n, basis)
    else:
        basis = fl.enumerate_basis(3, fl.fixed(n))
        state = fl.product_state(phi, n, basis) if family == "product" else \
            fl.theta_state(phi, fl.random_excitation(phi, 1, seed=(cfg.seed, 1)), n,
                           "creation_polynomial", basis)
    plan = fl.make_plan(fl.build_hamiltonian(cfg.ms, n, basis))
    rho = fl.reduced_dm(fl.evolve_fock(plan, state, t))
    phi_t = fl.evolve_hartree(cfg.ms, phi, np.array([0.0, t]), tol=1e-12).states[-1]
    target = fl.projector(phi_t / np.linalg.norm(phi_t))
    assert row.m == (1 if family == "theta" else 0)
    for kind, got in (("trace", row.trace_dist), ("hilbert_schmidt", row.hs_dist),
                      ("operator", row.op_dist)):
        assert got == pytest.approx(fl.distance(rho, target, kind), abs=1e-14)


def test_each_sweep_fills_only_its_own_columns():
    single = fl.run_convergence_sweep(fl.ExperimentConfig.from_dict(_theta_doc()))
    for row in single.to_json()["rows"]:
        assert row["extras"] == {} and row["cross_term"] is None
        assert row["bound_envelope"] is not None
    assert set(single.fits) == {0.5}
    mixture = fl.run_superposition_sweep(
        fl.ExperimentConfig.from_dict(_superposition_doc()))
    doc = mixture.to_json()
    assert doc["fits"] == {} and mixture.fits == {}
    # only coherent sweeps truncate, so only they carry a truncation ledger
    assert "truncation" not in single.metadata and "truncation" not in doc["metadata"]
    for row in doc["rows"]:
        assert row["bound_envelope"] is None and row["cross_term"] is not None
        assert set(row["extras"]) == {"coeff_weights", "fitted_weights",
                                      "target_weights"}


def test_free_potential_control_is_exact():
    doc = _theta_doc(v=[[0, 0], [0, 0]])
    doc["state"] = {"family": "product", "phi": [[0.8, 0], [0.36, 0.48]]}
    cfg = fl.ExperimentConfig.from_dict(doc)
    rep = fl.run_convergence_sweep(cfg)
    assert max(r.trace_dist for r in rep.rows) < 1e-9
    # the distances are rounding noise (about 4e-14), not a rate to fit
    assert rep.fits[0.5] == "exact"
    with pytest.raises(fl.ExactRegimeError):
        fl.fit_rate(rep, 0.5)
    # at the floor the regime is exact; just above it a rate is fit
    with pytest.raises(fl.ExactRegimeError):
        fl.fit_rate(_synthetic_report(lambda n: EXACT_REGIME_TOL * 32 / n), 1.0)
    fit = fl.fit_rate(_synthetic_report(lambda n: 1.01 * EXACT_REGIME_TOL * 32 / n), 1.0)
    assert fit.slope == pytest.approx(-1.0, abs=1e-9)


def test_superposition_sweep_logs_cross_terms_and_weights():
    cfg = fl.ExperimentConfig.from_dict(_superposition_doc())
    rep = fl.run_superposition_sweep(cfg)
    for r in rep.rows:
        assert r.cross_term == pytest.approx(0.5**r.n, abs=1e-8)
        # equal raw coefficients: |c_i(n)|^2 = (1/2) / (1 + G_12) exactly
        want = 0.5 / (1.0 + 0.5**r.n)
        assert r.extras["coeff_weights"] == pytest.approx([want, want], abs=1e-9)
        assert r.extras["target_weights"] == [0.5, 0.5]


def test_orthogonal_components_free_potential_exact_mixture():
    # orthogonal condensates under a free Hamiltonian: the evolved reduced
    # density matrix IS the weighted mixture, to machine precision
    doc = _superposition_doc()
    doc["mode_system"]["v"] = [[0, 0], [0, 0]]
    doc["state"]["components"][1]["phi"] = [[0, 0], [1, 0]]
    cfg = fl.ExperimentConfig.from_dict(doc)
    rep = fl.run_superposition_sweep(cfg)
    assert max(r.hs_dist for r in rep.rows) < 1e-10
    assert all(r.cross_term < 1e-12 for r in rep.rows)


def test_theta_superposition_sweep_runs():
    doc = _superposition_doc(kind="theta", n_list=(6, 8))
    doc["state"]["components"][0]["m"] = 1
    doc["state"]["components"][1]["m"] = 1
    cfg = fl.ExperimentConfig.from_dict(doc)
    rep = fl.run_superposition_sweep(cfg)
    assert all(r.m == 1 for r in rep.rows)
    assert all(np.isfinite(r.hs_dist) for r in rep.rows)


def test_sweeps_build_states_without_ladder_or_weyl_routines(monkeypatch):
    # states and transition matrices come in closed form; a ladder_matrix or
    # weyl_apply call on the sweep path would bring back the per-mode assembly
    # they replaced
    from focklab import dynamics, fock, rdm, states

    def refuse(*args, **kwargs):
        raise AssertionError("sweep called ladder_matrix or weyl_apply")

    for mod in (fock, states, dynamics, rdm):
        for name in ("ladder_matrix", "weyl_apply"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    phi = [[0.8, 0], [0.36, 0.48]]
    for family in ("theta", "product", "coherent"):
        doc = _theta_doc(n_list=(4, 6))
        doc["state"] = {"family": family, "phi": phi}
        rep = fl.run_convergence_sweep(fl.ExperimentConfig.from_dict(doc))
        assert len(rep.rows) == 2
    doc = _superposition_doc(kind="coherent", n_list=(4, 6))
    rep = fl.run_superposition_sweep(fl.ExperimentConfig.from_dict(doc))
    assert len(rep.rows) == 2


def _coherent_lattice_docs():
    c = 1 / sqrt(2)
    lattice = {"geometry": "lattice", "sites": 3,
               "potential": {"kind": "gaussian", "g": 1.0, "sigma": 0.5}}
    phi, psi = [[0.6, 0], [0, 0.8], [0, 0]], [[0, 0], [0.6, 0], [0, 0.8]]
    single = _theta_doc(n_list=(2, 3, 4, 5, 6), t_list=(0.0, 0.5))
    single["mode_system"] = lattice
    single["state"] = {"family": "coherent", "phi": phi}
    mixture = dict(single, state={
        "family": "superposition", "kind": "coherent",
        "components": [{"phi": phi, "coeff": [c, 0]}, {"phi": psi, "coeff": [c, 0]}]})
    return [(fl.run_convergence_sweep, single), (fl.run_superposition_sweep, mixture)]


@pytest.mark.parametrize("run,doc", _coherent_lattice_docs(), ids=["single", "mixture"])
def test_coherent_cells_match_the_headroom_basis(run, doc, monkeypatch):
    # H commutes with N: the sectors above the Poisson cutoff carry at most
    # POISSON_TAIL_FLOOR of the mass, so dropping them leaves the distances
    cfg = fl.ExperimentConfig.from_dict(doc)
    rep = run(cfg)
    ledger = rep.to_json()["metadata"]["truncation"]
    assert set(ledger) == {str(n) for n in cfg.n_list}
    for n in cfg.n_list:
        k = _poisson_cutoff(n)
        assert ledger[str(n)] == {"n_max": k, "tail_mass": float(pdtrc(k, n))}
        assert 0 < ledger[str(n)]["tail_mass"] <= POISSON_TAIL_FLOOR
    monkeypatch.setattr(harness, "_poisson_cutoff",
                        lambda n: fl.weyl_headroom(sqrt(n)))
    got, want = _distances(rep), _distances(run(cfg))
    assert got.keys() == want.keys()
    for key, dists in got.items():
        assert np.max(np.abs(np.subtract(dists, want[key]))) <= 1e-14


def test_single_family_sweep_rejects_superposition_config():
    cfg = fl.ExperimentConfig.from_dict(_superposition_doc())
    with pytest.raises(fl.ConfigError):
        fl.run_convergence_sweep(cfg)
    cfg2 = fl.ExperimentConfig.from_dict(_theta_doc())
    with pytest.raises(fl.ConfigError):
        fl.run_superposition_sweep(cfg2)


# ---------------------------------------------------------------------------
# invariant suite


def test_quick_suite_passes_within_budget():
    import time

    start = time.perf_counter()
    report = run_invariant_suite(level="quick")
    elapsed = time.perf_counter() - start
    assert report.passed, report.summary()
    assert elapsed < 60


def test_full_suite_passes_within_budget():
    import time

    start = time.perf_counter()
    report = run_invariant_suite(level="full")
    elapsed = time.perf_counter() - start
    assert report.passed, report.summary()
    assert elapsed < 900


def test_suite_json_verdict(tmp_path):
    report = run_invariant_suite(level="quick")
    doc = report.to_json(tmp_path / "verdict.json")
    assert doc["passed"] is True
    assert {c["name"] for c in doc["checks"]} >= {
        "ccr", "adjointness", "number_identity", "weyl", "theta_methods",
        "ak_oracle", "krasikov", "weighted_moment", "hartree_conservation",
        "norm_ordering",
    }
    assert json.loads((tmp_path / "verdict.json").read_text())["passed"] is True


def test_corrupted_ladder_fails_ccr(monkeypatch):
    def corrupted(kind, p, v):
        out = fl.ladder_apply(kind, p, v)
        if kind == "create":
            out = 1.001 * out
        return out

    monkeypatch.setattr(fl.invariants, "ladder_apply", corrupted)
    report = run_invariant_suite(level="quick")
    assert not report.passed
    failing = {c.name for c in report.checks if not c.passed}
    assert "ccr" in failing
