"""Aggregated invariant suite: every module's structural properties, runnable
as one pass/fail battery with a machine-readable verdict.
"""

import time
from dataclasses import dataclass, field
from math import exp, sqrt

import numpy as np

from . import combinatorics as comb
from .dynamics import number_moment
from .errors import FocklabError
from .fock import (
    FockVector,
    _written,
    basis_state,
    enumerate_basis,
    field_apply,
    fixed,
    ladder_apply,
    ladder_matrix,
    number_operator,
    second_quantize,
    truncated,
    weyl_apply,
    weyl_headroom,
)
from .hartree import evolve_hartree
from .modes import ModeSystem
from .rdm import distance, mixed_target, projector
from .states import (
    coherent_state,
    gram_overlap,
    product_state,
    random_excitation,
    theta_state,
)
from .tolerances import DEFAULT_HARTREE_TOL, ENERGY_DRIFT_TOL, NORM_DRIFT_TOL


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


@dataclass
class SuiteReport:
    level: str
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_json(self, path=None):
        doc = {
            "level": self.level,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail,
                 "seconds": round(c.seconds, 3)}
                for c in self.checks
            ],
        }
        return _written(doc, path, indent=1)

    def summary(self):
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"[{status}] {c.name}: {c.detail}")
        lines.append(f"suite: {'PASS' if self.passed else 'FAIL'} ({self.level})")
        return "\n".join(lines)


def _random_state(basis, rng):
    c = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    return FockVector(basis, c / np.linalg.norm(c))


def _random_unit(d, rng):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _random_ms(d, rng):
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (h + h.conj().T) / 2.0
    v = rng.standard_normal((d, d))
    return ModeSystem.dense(h, v)


def check_ccr(n_states, rng):
    """(a_p a+_q - a+_q a_p) v = delta_pq v strictly inside the truncation."""
    worst = 0.0
    for _ in range(n_states):
        d = int(rng.integers(2, 5))
        basis = enumerate_basis(d, truncated(6))
        v = _random_state(basis, rng)
        interior = v.coeffs.copy()
        interior[basis.totals > 4] = 0.0  # leave two units of headroom
        v = FockVector(basis, interior / np.linalg.norm(interior))
        p, q = int(rng.integers(0, d)), int(rng.integers(0, d))
        lhs = ladder_apply("annihilate", p, ladder_apply("create", q, v))
        rhs = ladder_apply("create", q, ladder_apply("annihilate", p, v))
        delta = (1.0 if p == q else 0.0)
        resid = lhs.coeffs - rhs.coeffs - delta * v.coeffs
        resid[basis.totals > 4] = 0.0
        worst = max(worst, float(np.max(np.abs(resid))))
    return worst <= 1e-12, f"max CCR residual {worst:.2e} over {n_states} states"


def check_adjointness(n_states, rng):
    """Creation matrices equal the adjoint of annihilation; linear-in-f rule."""
    worst = 0.0
    for _ in range(n_states):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 5))
        basis = enumerate_basis(d, fixed(n))
        p = int(rng.integers(0, d))
        a_mat, down = ladder_matrix("annihilate", p, basis)
        c_mat, _up = ladder_matrix("create", p, down)
        worst = max(worst, float(np.max(np.abs((a_mat - c_mat.getH()).toarray()))))
        f = _random_unit(d, rng)
        u = _random_state(down, rng)
        w = _random_state(basis, rng)
        lhs = u.inner(field_apply("annihilate", f, w))
        rhs = field_apply("create", np.conj(f), u).inner(w)
        worst = max(worst, abs(lhs - rhs))
    return worst <= 1e-10, f"max adjointness defect {worst:.2e}"


def check_number_identity():
    """dGamma(1) equals the number operator entrywise."""
    worst = 0.0
    for d, spec in ((2, fixed(3)), (3, truncated(4)), (4, fixed(2))):
        basis = enumerate_basis(d, spec)
        dG = second_quantize(np.eye(d), basis).matrix
        N = number_operator(basis).matrix
        worst = max(worst, float(abs(dG - N).max()))
    return worst == 0.0, f"max entry difference {worst:.2e}"


def check_field_bounds(n_states, rng):
    """||a#(f) v|| <= ||f|| ||(N+1)^(1/2) v|| and the quadratic-form bounds
    ||sum F_pq a+_p a_q v|| <= ||F|| ||N v||,
    ||sum F_pq a_p a_q v|| <= ||F|| ||(N+1) v||."""
    ok = True
    worst_margin = np.inf
    for _ in range(n_states):
        d = int(rng.integers(2, 5))
        basis = enumerate_basis(d, truncated(6))
        v = _random_state(basis, rng)
        f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        lim = float(np.linalg.norm(f)) * number_moment(v, 0.5)
        for kind in ("annihilate", "create"):
            val = field_apply(kind, f, v).norm()
            ok = ok and val <= lim * (1 + 1e-12)
            worst_margin = min(worst_margin, lim - val)
        F = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        norm_F = float(np.linalg.norm(F))
        norm_Nv = float(np.linalg.norm(basis.totals * v.coeffs))
        val = second_quantize(F, basis).apply(v).norm()
        ok = ok and val <= norm_F * norm_Nv * (1 + 1e-12)
        # sum_pq F_pq a_p a_q v = sum_p a_p a(F[p, :]) v
        aa = sum(ladder_apply("annihilate", p, field_apply("annihilate", F[p], v)).coeffs
                 for p in range(d))
        ok = ok and float(np.linalg.norm(aa)) <= (
            norm_F * number_moment(v, 1.0) * (1 + 1e-12)
        )
    return ok, f"all operator bounds hold (min margin {worst_margin:.2e})"


def check_weyl(n_states, rng):
    """Unitarity, inverse, composition phase, and the shift property."""
    worst = 0.0
    for _ in range(n_states):
        d = int(rng.integers(2, 4))
        alpha = 0.7 * _random_unit(d, rng)
        beta = 0.9 * _random_unit(d, rng)
        need = weyl_headroom(np.linalg.norm(alpha) + np.linalg.norm(beta))
        basis = enumerate_basis(d, truncated(need))
        v = basis_state(basis, (1,) + (0,) * (d - 1))
        cv, loss = weyl_apply(alpha, v)
        worst = max(worst, abs(cv.norm() ** 2 - 1.0) - loss)
        back, loss2 = weyl_apply(-np.asarray(alpha), cv)
        worst = max(worst, (back - v).norm() - 2 * (loss + loss2))
        ab, _ = weyl_apply(beta, v)
        ab, _ = weyl_apply(alpha, ab)
        phase = np.exp(-1j * np.vdot(alpha, beta).imag)
        direct, _ = weyl_apply(np.asarray(alpha) + np.asarray(beta), v)
        worst = max(worst, (ab - phase * direct).norm())
        p = int(rng.integers(0, d))
        lhs = ladder_apply("annihilate", p, cv)
        rhs_in = ladder_apply("annihilate", p, v) + alpha[p] * v
        rhs, _ = weyl_apply(alpha, rhs_in)
        worst = max(worst, (lhs - rhs).norm())
    return worst <= 1e-6, f"worst Weyl defect beyond truncation budget {worst:.2e}"


def check_coherent_identity(rng):
    """phi^(x)n = d_{n,0} P_n C(sqrt(n) phi) vacuum, and <N> = n."""
    worst = 0.0
    for n, d in ((4, 2), (6, 2), (4, 3)):
        phi = _random_unit(d, rng)
        basis = enumerate_basis(d, truncated(weyl_headroom(sqrt(n))))
        coh = coherent_state(phi, n, basis)
        N = number_operator(basis)
        worst = max(worst, abs(N.expectation(coh) - n))
        scaled = exp(comb.log_dnm(n, 0)) * coh.coeffs[basis.sector_slice(n)]
        prod = product_state(phi, n, enumerate_basis(d, fixed(n)))
        worst = max(worst, float(np.linalg.norm(scaled - prod.coeffs)))
    return worst <= 1e-8, f"worst coherent identity defect {worst:.2e}"


def check_theta_methods(rng, full):
    """Three constructions agree pairwise to 1e-8."""
    ns = range(2, 9) if full else (2, 4, 6)
    ds = (2, 3)
    ms = range(0, 4)
    worst = 0.0
    count = 0
    for d in ds:
        for n in ns:
            phi = _random_unit(d, rng)
            for m in ms:
                if m > n:
                    continue
                exc = None if m == 0 else random_excitation(phi, m, seed=(7, d, n, m))
                basis = enumerate_basis(d, fixed(n))
                t1 = theta_state(phi, exc, n, "symmetrize", basis)
                t2 = theta_state(phi, exc, n, "creation_polynomial", basis)
                t3 = theta_state(phi, exc, n, "weyl_projection", basis)
                worst = max(worst, (t1 - t2).norm(), (t2 - t3).norm(), (t1 - t3).norm())
                worst = max(worst, abs(t2.norm() - 1.0))
                count += 1
    return worst <= 1e-8, f"worst pairwise gap {worst:.2e} over {count} cases"


def _displaced_theta_norms(rng, n, m, d, seed):
    """Sector norms of C*(sqrt(n) phi) theta_{n,m} on truncated(48), phi a
    random unit vector of d modes and psi_m drawn from ``seed`` (none at m = 0)."""
    phi = _random_unit(d, rng)
    exc = None if m == 0 else random_excitation(phi, m, seed=seed)
    th = theta_state(phi, exc, n, "creation_polynomial", enumerate_basis(d, truncated(48)))
    disp, _ = weyl_apply(-sqrt(n) * phi, th)
    return disp.sector_norms()


def check_ak_oracle(rng):
    """Closed-form displaced-state coefficients vs direct Fock computation.

    The m = 0 row doubles as the coherent-projection consistency check: the
    displaced condensate's sector norms must match the closed form too.
    """
    worst = 0.0
    for (n, m, d) in ((6, 0, 2), (6, 1, 2), (6, 2, 2), (8, 1, 2), (6, 1, 3)):
        norms = _displaced_theta_norms(rng, n, m, d, seed=(11, n, m))
        ak = comb.theta_weyl_coefficients(n, m).a
        for k in range(n - m + 1):
            worst = max(worst, abs(norms[k + m] - ak[k]))
    return worst <= 1e-7, f"worst |A_k| mismatch {worst:.2e}"


def check_ak_invariance(rng):
    """A_k does not depend on the choice of (phi, psi_m)."""
    n, m, d = 6, 1, 3
    results = [_displaced_theta_norms(rng, n, m, d, seed=(trial, 5))[m : n + 1]
               for trial in range(2)]
    gap = float(np.max(np.abs(results[0] - results[1])))
    return gap <= 1e-10, f"coefficient drift between random draws {gap:.2e}"


def check_krasikov(n_points, rng):
    """The Laguerre envelope is strict everywhere on its validity window."""
    violations = 0
    worst_ratio = 0.0
    for _ in range(n_points):
        k = int(rng.integers(2, 26))
        alpha = float(rng.uniform(-0.9, 10.0))
        s = sqrt(k + alpha + 1) + sqrt(k)
        q = sqrt(k + alpha + 1) - sqrt(k)
        x = float(rng.uniform(q * q * 1.0001, s * s * 0.9999))
        kb = comb.krasikov_bound(k, alpha, x)
        if not kb.valid:
            violations += 1
            continue
        val = abs(comb.laguerre(k, alpha, x))
        worst_ratio = max(worst_ratio, val / kb.bound)
        if not val < kb.bound:
            violations += 1
    return violations == 0, (
        f"{violations} violations in {n_points} samples, worst ratio {worst_ratio:.4f}"
    )


def check_weighted_moment():
    """lhs <= rhs for admissible sizes, and the scaled quantity stays tame;
    the detail names each failed bound, or reads "all lhs<=rhs"."""
    detail = []
    moments = {}
    for n in (20, 50, 100, 200, 800, 3200):
        for m in sorted({0, 1, min(3, comb.admissible_m(n)), comb.admissible_m(n)}):
            wm = moments[n, m] = comb.weighted_number_moment(n, m, 0.5)
            if wm.lhs > wm.rhs:
                detail.append(f"lhs>{wm.rhs:.3e} at (n={n}, m={m})")
    scaled = [
        moments[n, 3].rhs * exp(2 * comb.log_dnm(n, 3)) * exp(-3.0)
        for n in (200, 800, 3200)
    ]
    ratio = max(scaled) / min(scaled)
    return (not detail and ratio < 2.0,
            "; ".join(detail or ["all lhs<=rhs"]) + f"; scaled rhs ratio over n-sweep {ratio:.3f}")


def check_hartree_conservation(n_systems, rng):
    """Norm within NORM_DRIFT_TOL and energy within ENERGY_DRIFT_TOL (absolute)
    over t in [0, 2]."""
    worst_norm, worst_energy = 0.0, 0.0
    for _ in range(n_systems):
        d = int(rng.integers(2, 5))
        ms = _random_ms(d, rng)
        phi = _random_unit(d, rng)
        traj = evolve_hartree(ms, phi, np.linspace(0, 2, 21), tol=DEFAULT_HARTREE_TOL)
        worst_norm = max(worst_norm, float(np.max(np.abs(traj.norm_log - 1.0))))
        worst_energy = max(
            worst_energy, float(np.max(np.abs(traj.energy_log - traj.energy_log[0])))
        )
    ok = worst_norm <= NORM_DRIFT_TOL and worst_energy <= ENERGY_DRIFT_TOL
    return ok, f"norm drift {worst_norm:.2e}, energy drift {worst_energy:.2e}"


def check_norm_ordering(n_pairs, rng):
    """operator <= HS <= trace, and trace <= 2 HS against rank-one targets."""
    ok = True
    for _ in range(n_pairs):
        d = int(rng.integers(2, 6))
        w = rng.random(d)
        rho1 = mixed_target(w / w.sum(), [_random_unit(d, rng) for _ in range(d)])
        rho2 = projector(_random_unit(d, rng))
        td = distance(rho1, rho2, "trace")
        hd = distance(rho1, rho2, "hilbert_schmidt")
        od = distance(rho1, rho2, "operator")
        ok = ok and od <= hd * (1 + 1e-12) and hd <= td * (1 + 1e-12)
        ok = ok and td <= 2 * hd * (1 + 1e-12)
    return ok, f"ordering held for {n_pairs} random pairs"


def check_gram_forms(rng):
    """Closed-form overlaps agree with direct Fock inner products."""
    d = 2
    worst = 0.0
    phi1 = np.array([1.0, 0.0], dtype=complex)
    phi2 = np.array([0.5, sqrt(3) / 2], dtype=complex)
    for n in (4, 8):
        g_closed = gram_overlap("product", phi1, phi2, n)
        b = enumerate_basis(d, fixed(n))
        g_num = product_state(phi1, n, b).inner(product_state(phi2, n, b))
        worst = max(worst, abs(g_closed - g_num))
        tb = enumerate_basis(d, truncated(weyl_headroom(sqrt(n))))
        g_closed = gram_overlap("coherent", phi1, phi2, n)
        g_num = coherent_state(phi1, n, tb).inner(coherent_state(phi2, n, tb))
        worst = max(worst, abs(g_closed - g_num))
    return worst <= 1e-7, f"worst closed-form gap {worst:.2e}"


def run_invariant_suite(level="quick", rng_seed=2024):
    """Execute every module's invariant battery; returns a SuiteReport."""
    if level not in ("quick", "full"):
        raise ValueError("level must be quick or full")
    full = level == "full"
    rng = np.random.default_rng(rng_seed)
    n_states = 100 if full else 25
    plan = [
        ("ccr", lambda: check_ccr(n_states, rng)),
        ("adjointness", lambda: check_adjointness(n_states // 2, rng)),
        ("number_identity", check_number_identity),
        ("field_bounds", lambda: check_field_bounds(20 if full else 8, rng)),
        ("weyl", lambda: check_weyl(10 if full else 4, rng)),
        ("coherent_identity", lambda: check_coherent_identity(rng)),
        ("theta_methods", lambda: check_theta_methods(rng, full)),
        ("ak_oracle", lambda: check_ak_oracle(rng)),
        ("ak_invariance", lambda: check_ak_invariance(rng)),
        ("krasikov", lambda: check_krasikov(500, rng)),
        ("weighted_moment", check_weighted_moment),
        ("hartree_conservation",
         lambda: check_hartree_conservation(20 if full else 5, rng)),
        ("norm_ordering", lambda: check_norm_ordering(50 if full else 20, rng)),
        ("gram_forms", lambda: check_gram_forms(rng)),
    ]
    report = SuiteReport(level=level)
    for name, fn in plan:
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except FocklabError as e:
            passed, detail = False, f"raised {type(e).__name__}: {e}"
        report.checks.append(CheckResult(
            name=name, passed=bool(passed), detail=detail,
            seconds=time.perf_counter() - start,
        ))
    return report
