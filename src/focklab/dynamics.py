"""Exact propagation U(t) = exp(-i t H) on truncated Fock bases.

H commutes with the number operator N, so it commutes with the diagonal D
that gives each state the mean of H's diagonal over its number sector, and
exp(-i t H) = exp(-i t D) exp(-i t (H - D)) exactly.  The first factor is a
phase per state.  The second is the Chebyshev expansion of Tal-Ezer &
Kosloff, J. Chem. Phys. 81, 3967 (1984): with [c - r, c + r] the Gershgorin
interval of H - D and B = (H - D - c)/r,

    exp(-i t (H - D)) v = exp(-i t c) sum_k (2 - delta_k0) (-i)^k J_k(t r) T_k(B) v,

with T_k(B) v = 2 B T_{k-1}(B) v - T_{k-2}(B) v from sparse products.  B has
its spectrum in [-1, 1], so ||T_k(B) v|| <= ||v||; the series, of degree
about |t| r, stops at the first index past |t r| where |J_k(t r)| <
SERIES_STOP_TOL, beyond which the J_k fall faster than geometrically.
Nothing is factorized or drawn at random: a result depends on (H, v, t) only.

The mean-field frame propagator W(t, t0) = C*(sqrt(n) phi_t) U(t - t0)
C(sqrt(n) phi_0) is applied as three explicit factors; the Weyl factors are
dense in the occupation basis and are never assembled as matrices.
"""

from dataclasses import dataclass, field
from math import isfinite, sqrt

import numpy as np
import scipy.sparse as sp
from scipy.special import jv

from .errors import KrylovError, SectorError
from .fock import (FockVector, SparseOperator, build_hamiltonian, weyl_apply,
                   weyl_headroom)
from .tolerances import DEFAULT_KRYLOV_TOL, SERIES_STOP_TOL, TIME_TOL


@dataclass
class PropagatorPlan:
    """The Hamiltonian split as D + (H - D) and scaled for the Chebyshev
    series, and the norm-defect tolerance its propagation checks.

    ``phase`` holds D, the mean of H's diagonal over each state's number
    sector.  ``interval`` is the Gershgorin interval (lo, hi) of H - D, and
    ``scaled`` the CSR matrix B = (H - D - c)/r, with c and r the interval's
    centre and half-width; a point interval leaves B = H - D - c = 0.
    ``method`` is always "krylov" (the result is a polynomial in H applied
    to the vector) and ``blocks`` always empty: nothing is factorized.
    """

    method: str
    basis: object
    tol: float = DEFAULT_KRYLOV_TOL
    blocks: list = field(default_factory=list)
    phase: np.ndarray = None
    interval: tuple = (0.0, 0.0)
    scaled: sp.csr_matrix = None


def make_plan(H: SparseOperator, tol=DEFAULT_KRYLOV_TOL):
    """Check the Hamiltonian and the tolerance, split off the sector means of
    H's diagonal, and scale the rest to the Chebyshev interval."""
    if not H.hermitian:
        raise ValueError("propagation needs a Hermitian Hamiltonian")
    if not 0 < tol <= DEFAULT_KRYLOV_TOL:  # also rejects nan
        raise ValueError(f"krylov tolerance must lie in (0, {DEFAULT_KRYLOV_TOL}]")
    A, totals = H.matrix, H.basis.totals
    diag = A.diagonal().real
    # a fixed(n) basis leaves the sectors below n empty; they are never indexed
    means = np.bincount(totals, weights=diag) / np.maximum(np.bincount(totals), 1)
    phase = means[totals]
    radii = np.ravel(abs(A).sum(axis=1)) - np.abs(diag)  # off-diagonal row sums
    lo, hi = float(np.min(diag - phase - radii)), float(np.max(diag - phase + radii))
    scaled = (A - sp.diags(phase + (lo + hi) / 2)).tocsr()
    if hi > lo:
        scaled.data /= (hi - lo) / 2
    return PropagatorPlan(method="krylov", basis=H.basis, tol=tol, phase=phase,
                          interval=(lo, hi), scaled=scaled)


def _bessel_series(x):
    """J_k(x) for k below the first index past |x| with |J_k(x)| <
    SERIES_STOP_TOL; past |x| the |J_k(x)| decrease in k."""
    k = np.arange(int(abs(x) + 12 * abs(x) ** (1 / 3)) + 20)  # enough for |x| <= 1e5
    j = jv(k, x)
    while abs(j[-1]) >= SERIES_STOP_TOL:
        k = np.arange(2 * k.size)
        j = jv(k, x)
    return j[:np.flatnonzero((k > abs(x)) & (np.abs(j) < SERIES_STOP_TOL))[0]]


def evolve_fock(plan: PropagatorPlan, v: FockVector, t):
    """U(t) v; unitary and number-conserving.  At t = 0 the series is J_0(0) = 1
    times a unit phase, so the result equals v (a zero part may change sign).

    Raises ValueError for a non-finite t, and KrylovError when the result is
    not finite or its norm differs from ||v|| by more than plan.tol * ||v||.
    """
    if not isfinite(t):
        raise ValueError(f"propagation time t must be finite, got {t}")
    if v.basis != plan.basis:
        raise SectorError("vector does not live on the plan's basis")
    lo, hi = plan.interval
    j = _bessel_series(t * (hi - lo) / 2)
    coeffs = 2 * np.array([1, -1j, -1, 1j])[np.arange(j.size) % 4] * j  # 2 (-i)^k J_k
    prev = np.exp(-1j * t * (plan.phase + (lo + hi) / 2)) * v.coeffs
    out = j[0] * prev  # degree 0: a zero-width interval or a tiny t r
    if j.size > 1:
        cur = plan.scaled @ prev
        out += coeffs[1] * cur
        for ck in coeffs[2:]:
            prev = 2 * (plan.scaled @ cur) - prev
            out += ck * prev
            prev, cur = cur, prev
    norm_in = np.linalg.norm(v.coeffs)
    defect = abs(np.linalg.norm(out) - norm_in)
    if not defect <= plan.tol * norm_in:  # also catches inf and nan entries
        raise KrylovError(
            f"propagation to t={t} broke unitarity: norm defect {defect:.3e} "
            f"exceeds {plan.tol} * {norm_in:.3e}"
        )
    return FockVector(plan.basis, out)


def number_moment(v: FockVector, delta):
    """||(N+1)^delta v|| computed sector-wise."""
    if not 0.0 <= delta < np.inf:
        raise ValueError(f"delta must be finite and >= 0, got {delta!r}")
    weights = (v.basis.totals + 1.0) ** (2.0 * delta)
    return float(np.sqrt(np.sum(weights * np.abs(v.coeffs) ** 2)))


def fluctuation_apply(n, trajectory, v: FockVector, t):
    """W(t, 0) v: displace by sqrt(n) phi_0, evolve, undo by sqrt(n) phi_t.

    Returns (vector, combined_truncation_loss).  The basis must be truncated
    with headroom for displacement size sqrt(n).  The Hamiltonian is the
    trajectory's mode system's, built on v's basis.  Any trajectory covering
    [0, t] serves, however sampled: phi_0 and phi_t come from its ``at``.
    Accurate for small n only: the undoing displacement errs by about eps
    e^{2n}, beyond the loss reported (see ``weyl_apply``).
    """
    basis = v.basis
    if basis.sector[0] != "truncated":
        raise SectorError("the fluctuation propagator needs a truncated basis")
    need = weyl_headroom(sqrt(n))
    if basis.n_max < need:
        raise SectorError(
            f"truncation n_max={basis.n_max} below headroom {need} for n={n}"
        )
    if not trajectory.t_min - TIME_TOL <= t <= trajectory.t_max + TIME_TOL:
        raise SectorError(f"trajectory does not cover t={t}")
    plan = make_plan(build_hamiltonian(trajectory.ms, n, basis))
    w1, loss1 = weyl_apply(sqrt(n) * trajectory.at(0.0), v)
    w2 = evolve_fock(plan, w1, t)
    w3, loss3 = weyl_apply(-sqrt(n) * trajectory.at(t), w2)
    return w3, loss1 + loss3
