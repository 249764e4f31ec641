"""Acceptance battery: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion; each test also prints a one-line verdict for ``-s`` runs.
"""

import time
from math import exp, sqrt

import numpy as np

import focklab as fl
from focklab.harness import ExperimentConfig
from focklab.invariants import (
    check_adjointness,
    check_ccr,
    check_field_bounds,
)

SWEEP_DOC = {
    "mode_system": {
        "geometry": "dense",
        "h": [[0, -1], [-1, 0]],
        "v": [[1, 0], [0, 1]],  # contact pair kernel, g = 1
    },
    "state": {"family": "theta", "phi": [[0.8, 0], [0.36, 0.48]],
              "m": 1, "excitation_seed": 0},
    "n_list": [4, 6, 8, 10, 12, 14],
    "t_list": [0.5],
    "tolerances": {"hartree_tol": 1e-12},
    "seed": 7,
}


def _doc(**overrides):
    import copy

    doc = copy.deepcopy(SWEEP_DOC)
    doc.update(overrides)
    return doc


def _verdict(criterion, ok, detail=""):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_01_algebra_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    ok_ccr, detail_ccr = check_ccr(100, rng)
    ok_adj, detail_adj = check_adjointness(100, rng)
    ok_bnd, detail_bnd = check_field_bounds(100, rng)
    # dGamma(1) = N entrywise on a representative spread of bases
    ok_num = True
    for d in (2, 3, 4):
        b = fl.enumerate_basis(d, fl.truncated(4))
        ok_num &= (fl.second_quantize(np.eye(d), b).matrix
                   != fl.number_operator(b).matrix).nnz == 0
    elapsed = time.perf_counter() - start
    ok = ok_ccr and ok_adj and ok_bnd and ok_num and elapsed < 30
    _verdict(1, ok, f"({detail_ccr}; {detail_adj}; {detail_bnd}; {elapsed:.1f}s)")


def test_criterion_02_weyl_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(12):
        d = int(rng.integers(2, 4))
        alpha = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        alpha *= rng.uniform(0.3, 1.0) / np.linalg.norm(alpha)
        beta = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        beta *= rng.uniform(0.3, 1.0) / np.linalg.norm(beta)
        basis = fl.enumerate_basis(
            d, fl.truncated(fl.weyl_headroom(np.linalg.norm(alpha) + np.linalg.norm(beta)))
        )
        v = fl.basis_state(basis, (1,) + (0,) * (d - 1))
        # unitarity within reported loss
        cv, loss = fl.weyl_apply(alpha, v)
        worst = max(worst, abs(cv.norm() ** 2 - (1.0 - loss)))
        back, loss2 = fl.weyl_apply(-alpha, cv)
        worst = max(worst, (back - v).norm())
        # composition law with its phase
        ab, _ = fl.weyl_apply(beta, v)
        ab, _ = fl.weyl_apply(alpha, ab)
        direct, _ = fl.weyl_apply(alpha + beta, v)
        phase = np.exp(-1j * np.vdot(alpha, beta).imag)
        worst = max(worst, (ab - phase * direct).norm())
        # shift property: a_p C(alpha) = C(alpha)(a_p + alpha_p)
        p = int(rng.integers(0, d))
        lhs = fl.ladder_apply("annihilate", p, cv)
        rhs, _ = fl.weyl_apply(alpha, fl.ladder_apply("annihilate", p, v) + alpha[p] * v)
        worst = max(worst, (lhs - rhs).norm())
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 60
    _verdict(2, ok, f"(worst defect {worst:.2e}; {elapsed:.1f}s)")


def test_criterion_03_three_constructions_agree():
    rng = np.random.default_rng(303)
    worst = 0.0
    cases = 0
    for d in (2, 3):
        for n in range(2, 9):
            phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            phi /= np.linalg.norm(phi)
            for m in range(0, 4):
                if m > n:
                    continue
                exc = None if m == 0 else fl.random_excitation(phi, m, seed=(d, n, m))
                basis = fl.enumerate_basis(d, fl.fixed(n))
                t1 = fl.theta_state(phi, exc, n, "symmetrize", basis)
                t2 = fl.theta_state(phi, exc, n, "creation_polynomial", basis)
                t3 = fl.theta_state(phi, exc, n, "weyl_projection", basis)
                worst = max(worst, (t1 - t2).norm(), (t2 - t3).norm(),
                            (t1 - t3).norm())
                cases += 1
    # recalled identity: phi^(x)n = d_{n,0} P_n C(sqrt(n) phi) vacuum
    for n, d in ((4, 2), (6, 2), (5, 3)):
        phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        phi /= np.linalg.norm(phi)
        tb = fl.enumerate_basis(d, fl.truncated(fl.weyl_headroom(sqrt(n))))
        coh = fl.coherent_state(phi, n, tb)
        proj = fl.sector_project(n, coh)
        scaled = exp(fl.log_dnm(n, 0)) * proj.coeffs[tb.sector_slice(n)]
        want = fl.product_state(phi, n, fl.enumerate_basis(d, fl.fixed(n)))
        worst = max(worst, float(np.linalg.norm(scaled - want.coeffs)))
    ok = worst < 1e-8
    _verdict(3, ok, f"(worst gap {worst:.2e} over {cases} construction triples)")


def test_criterion_04_displaced_coefficient_oracle():
    rng = np.random.default_rng(404)
    worst = 0.0
    for n, m in ((6, 1), (6, 2), (8, 1)):
        phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        phi /= np.linalg.norm(phi)
        exc = fl.random_excitation(phi, m, seed=(n, m))
        basis = fl.enumerate_basis(2, fl.truncated(48))
        th = fl.theta_state(phi, exc, n, "creation_polynomial", basis)
        disp, _ = fl.weyl_apply(-sqrt(n) * phi, th)
        norms = disp.sector_norms()
        closed = fl.theta_weyl_coefficients(n, m).a
        for k in range(n - m + 1):
            worst = max(worst, abs(norms[k + m] - closed[k]))
    # invariance under change of (phi, excitation)
    drift = 0.0
    n, m, d = 6, 1, 3
    runs = []
    for trial in (0, 1):
        phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        phi /= np.linalg.norm(phi)
        exc = fl.random_excitation(phi, m, seed=trial)
        basis = fl.enumerate_basis(d, fl.truncated(48))
        th = fl.theta_state(phi, exc, n, "creation_polynomial", basis)
        disp, _ = fl.weyl_apply(-sqrt(n) * phi, th)
        runs.append(disp.sector_norms()[m : n + 1])
    drift = float(np.max(np.abs(runs[0] - runs[1])))
    ok = worst < 1e-7 and drift < 1e-10
    _verdict(4, ok, f"(oracle gap {worst:.2e}, invariance drift {drift:.2e})")


def test_criterion_05_envelope_and_weighted_moment():
    rng = np.random.default_rng(505)
    violations = 0
    for _ in range(500):
        k = int(rng.integers(2, 26))
        alpha = float(rng.uniform(-0.9, 10.0))
        s = sqrt(k + alpha + 1) + sqrt(k)
        q = sqrt(k + alpha + 1) - sqrt(k)
        x = float(rng.uniform(q * q * 1.0001, s * s * 0.9999))
        kb = fl.krasikov_bound(k, alpha, x)
        if not (kb.valid and abs(fl.laguerre(k, alpha, x)) < kb.bound):
            violations += 1
    moment_ok = True
    for n in (20, 50, 100, 200, 800, 3200):
        for m in sorted({0, 1, fl.admissible_m(n)}):
            wm = fl.weighted_number_moment(n, m, 0.5)
            moment_ok &= wm.lhs <= wm.rhs
    scaled = [
        fl.weighted_number_moment(n, 3, 0.5).rhs * exp(2 * fl.log_dnm(n, 3)) * exp(-3.0)
        for n in (200, 800, 3200)
    ]
    ratio = max(scaled) / min(scaled)
    ok = violations == 0 and moment_ok and ratio < 2.0
    _verdict(5, ok, f"(0 of 500 envelope violations; implied constant sup "
                    f"{max(scaled):.1f}, sweep ratio {ratio:.2f})")


def test_criterion_06_hartree_conservation():
    rng = np.random.default_rng(606)
    worst_norm = worst_energy = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 5))
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        v = rng.standard_normal((d, d))
        ms = fl.ModeSystem.dense((h + h.conj().T) / 2, (v + v.T) / 2)
        phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        phi /= np.linalg.norm(phi)
        traj = fl.evolve_hartree(ms, phi, np.linspace(0, 2, 11), tol=1e-10)
        worst_norm = max(worst_norm, float(np.max(np.abs(traj.norm_log - 1.0))))
        worst_energy = max(worst_energy,
                           float(np.max(np.abs(traj.energy_log - traj.energy_log[0]))))
    # exactly solvable controls
    h = np.diag([0.4, -1.2])
    free = fl.evolve_hartree(fl.ModeSystem.dense(h, np.zeros((2, 2))),
                             np.array([0.6, 0.8], dtype=complex),
                             np.linspace(0, 2, 5), tol=1e-12)
    exact_err = 0.0
    for i, t in enumerate(free.times):
        want = np.exp(-1j * np.diag(h) * t) * np.array([0.6, 0.8])
        exact_err = max(exact_err, float(np.linalg.norm(free.states[i] - want)))
    g = 1.9
    single = fl.evolve_hartree(fl.ModeSystem.dense(np.zeros((1, 1)), [[g]]),
                               np.array([1.0 + 0j]), np.linspace(0, 2, 5), tol=1e-12)
    for i, t in enumerate(single.times):
        exact_err = max(exact_err, abs(single.states[i, 0] - np.exp(-1j * g * t)))
    ok = worst_norm <= 1e-8 and worst_energy <= 1e-6 and exact_err <= 1e-9
    _verdict(6, ok, f"(norm {worst_norm:.2e}, energy {worst_energy:.2e}, "
                    f"exact {exact_err:.2e})")


def test_criterion_07_partially_factorized_scaling():
    start = time.perf_counter()
    cfg = ExperimentConfig.from_dict(_doc())
    report = fl.run_convergence_sweep(cfg)
    dists = [r.trace_dist for r in report.rows_at(0.5)]
    decreasing = all(b < a for a, b in zip(dists, dists[1:]))
    fit = fl.fit_rate(report, 0.5)
    elapsed = time.perf_counter() - start
    ok = decreasing and fit.slope <= -0.4 and fit.r2 >= 0.9 and elapsed < 300
    _verdict(7, ok, f"(slope {fit.slope:.3f}, r2 {fit.r2:.4f}, "
                    f"decreasing={decreasing}, {elapsed:.1f}s)")


def test_criterion_08_condensate_baselines_and_free_control():
    start = time.perf_counter()
    slopes = {}
    for family in ("product", "coherent"):
        doc = _doc(state={"family": family, "phi": [[0.8, 0], [0.36, 0.48]]})
        report = fl.run_convergence_sweep(ExperimentConfig.from_dict(doc))
        slopes[family] = fl.fit_rate(report, 0.5).slope
    free = _doc(state={"family": "product", "phi": [[0.8, 0], [0.36, 0.48]]})
    free["mode_system"] = {"geometry": "dense", "h": [[0, -1], [-1, 0]],
                           "v": [[0, 0], [0, 0]]}
    free_report = fl.run_convergence_sweep(ExperimentConfig.from_dict(free))
    free_max = max(r.trace_dist for r in free_report.rows)
    elapsed = time.perf_counter() - start
    ok = (slopes["product"] <= -0.4 and slopes["coherent"] <= -0.4
          and free_max < 1e-10 and elapsed < 300)
    _verdict(8, ok, f"(slopes {slopes['product']:.3f}/{slopes['coherent']:.3f}, "
                    f"free control {free_max:.1e}, {elapsed:.1f}s)")


def test_criterion_09_superposition_scaling():
    start = time.perf_counter()
    c = 1 / sqrt(2)
    components = [
        {"phi": [[1, 0], [0, 0]], "coeff": [c, 0]},
        {"phi": [[0.5, 0], [0.8660254037844386, 0]], "coeff": [c, 0]},
    ]
    ok = True
    details = []
    for kind, n_list, closed in (
        ("product", [4, 6, 8, 10, 12, 14], lambda n: 0.5**n),
        ("coherent", [4, 6, 8, 10, 12], lambda n: exp(-n / 2.0)),
    ):
        doc = _doc(state={"family": "superposition", "kind": kind,
                          "components": components}, n_list=n_list)
        report = fl.run_superposition_sweep(ExperimentConfig.from_dict(doc))
        rows = report.rows_at(0.5)
        hs = [r.hs_dist for r in rows]
        decreasing = all(b < a for a, b in zip(hs, hs[1:]))
        cross_ok = all(abs(r.cross_term - closed(r.n)) < 1e-8 for r in rows)
        weights = rows[-1].extras["coeff_weights"]
        weights_ok = all(abs(w - 0.5) < 0.005 for w in weights)
        ok &= decreasing and cross_ok and weights_ok
        details.append(f"{kind}: hs {hs[0]:.4f}->{hs[-1]:.5f} dec={decreasing} "
                       f"cross={cross_ok} w={weights[0]:.4f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 600
    _verdict(9, ok, f"({'; '.join(details)}; {elapsed:.1f}s)")


def test_criterion_10_determinism(tmp_path):
    cfg = ExperimentConfig.from_dict(_doc())
    p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    fl.run_convergence_sweep(cfg, threads=1).to_csv(p1)
    fl.run_convergence_sweep(cfg, threads=1).to_csv(p2)
    identical = p1.read_bytes() == p2.read_bytes()
    _verdict(10, identical, "(byte-identical CSVs)")
