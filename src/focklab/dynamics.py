"""Exact propagation U(t) = exp(-i t H) on truncated Fock bases.

Two interchangeable backends:

* dense_eig -- Hermitian eigendecomposition, done block-by-block over the
  total-number sectors (H commutes with N, and sectors are contiguous index
  ranges in this basis ordering), so factorizing a truncated basis costs the
  sum of the cubes of the sector dimensions instead of the cube of the total.
  Reusable for arbitrarily many times t.  Allowed up to dimension 4000.
* krylov -- Lanczos approximation of the exponential action with full
  reorthogonalization, residual-controlled, with automatic substepping.

The mean-field frame propagator

    W(t, t0) = C*(sqrt(n) phi_t) U(t - t0) C(sqrt(n) phi_0)

is applied as three explicit factors; the Weyl factors are dense in the
occupation basis and are never assembled as matrices.
"""

from dataclasses import dataclass, field
from math import sqrt

import numpy as np
import scipy.linalg as sla

from .errors import KrylovError, SectorError
from .fock import (
    FockVector,
    SparseOperator,
    build_hamiltonian,
    weyl_apply,
    weyl_headroom,
)

DENSE_DIM_CAP = 4000
DEFAULT_KRYLOV_DIM = 60
DEFAULT_KRYLOV_TOL = 1e-10  # also the loosest residual tolerance accepted


@dataclass
class PropagatorPlan:
    """Factorized propagator; immutable after construction, safe to share."""

    method: str
    basis: object
    H: SparseOperator
    krylov_dim: int = DEFAULT_KRYLOV_DIM
    tol: float = DEFAULT_KRYLOV_TOL
    blocks: list = field(default_factory=list)  # (slice, eigvals, eigvecs)


def make_plan(H: SparseOperator, method="auto", krylov_dim=DEFAULT_KRYLOV_DIM,
              tol=DEFAULT_KRYLOV_TOL):
    """Choose and prepare a propagation backend for the Hamiltonian."""
    if not H.hermitian:
        raise ValueError("propagation needs a Hermitian Hamiltonian")
    if tol > DEFAULT_KRYLOV_TOL:
        raise ValueError(f"krylov residual tolerance must be <= {DEFAULT_KRYLOV_TOL}")
    dim = H.basis.dim
    if method == "auto":
        method = "dense_eig" if dim <= DENSE_DIM_CAP else "krylov"
    if method == "dense_eig" and dim > DENSE_DIM_CAP:
        raise ValueError(f"dense_eig only allowed up to dimension {DENSE_DIM_CAP}")
    if method not in ("dense_eig", "krylov"):
        raise ValueError(f"unknown propagation method {method!r}")
    plan = PropagatorPlan(method=method, basis=H.basis, H=H,
                          krylov_dim=krylov_dim, tol=tol)
    if method == "dense_eig":
        kind, cap = H.basis.sector
        sectors = range(cap, cap + 1) if kind == "fixed" else range(cap + 1)
        for nsec in sectors:
            sl = H.basis.sector_slice(nsec)
            block = H.matrix[sl, sl].toarray()
            vals, vecs = np.linalg.eigh(block)
            plan.blocks.append((sl, vals, vecs))
    return plan


def evolve_fock(plan: PropagatorPlan, v: FockVector, t):
    """U(t) v; unitary and number-conserving."""
    if v.basis != plan.basis:
        raise SectorError("vector does not live on the plan's basis")
    if t == 0:
        return v.copy()
    if plan.method == "dense_eig":
        out = np.empty_like(v.coeffs)
        for sl, vals, vecs in plan.blocks:
            out[sl] = vecs @ (np.exp(-1j * t * vals) * (vecs.conj().T @ v.coeffs[sl]))
        return FockVector(plan.basis, out)
    return _krylov_expm(plan, v, t)


def _lanczos_step(Hm, v0, t, m_max, tol):
    """One Lanczos exponential application; returns (vector, converged)."""
    dim = v0.shape[0]
    beta0 = np.linalg.norm(v0)
    if beta0 == 0.0:
        return v0.copy(), True
    m_max = min(m_max, dim)
    V = np.zeros((dim, m_max), dtype=complex)
    alphas = np.zeros(m_max)
    betas = np.zeros(m_max)  # betas[j] couples V[:, j-1] and V[:, j]
    V[:, 0] = v0 / beta0
    result = None
    j_used = 0
    for j in range(m_max):
        w = Hm @ V[:, j]
        a = float(np.vdot(V[:, j], w).real)
        alphas[j] = a
        w = w - a * V[:, j]
        if j > 0:
            w = w - betas[j] * V[:, j - 1]
        # full reorthogonalization: cheap at these dimensions, removes drift
        w = w - V[:, : j + 1] @ (V[:, : j + 1].conj().T @ w)
        b = np.linalg.norm(w)
        j_used = j + 1
        T_vals, T_vecs = sla.eigh_tridiagonal(alphas[: j + 1], betas[1 : j + 1])
        small = T_vecs @ (np.exp(-1j * t * T_vals) * T_vecs[0, :].conj())
        if b < 1e-14:  # happy breakdown: the Krylov space is invariant
            result = beta0 * (V[:, : j + 1] @ small)
            return result, True
        err = abs(b * small[j]) * abs(t)
        if err < tol:
            result = beta0 * (V[:, : j + 1] @ small)
            return result, True
        if j + 1 < m_max:
            betas[j + 1] = b
            V[:, j + 1] = w / b
    result = beta0 * (V[:, :j_used] @ small)
    return result, False


def _krylov_expm(plan, v, t, max_substeps=1024):
    coeffs = v.coeffs
    n_sub = 1
    while n_sub <= max_substeps:
        dt = t / n_sub
        out = coeffs
        ok = True
        for _ in range(n_sub):
            out, converged = _lanczos_step(plan.H.matrix, out, dt,
                                           plan.krylov_dim, plan.tol / n_sub)
            if not converged:
                ok = False
                break
        if ok:
            return FockVector(plan.basis, out)
        n_sub *= 2
    raise KrylovError(
        f"no convergence with krylov_dim={plan.krylov_dim} and "
        f"{max_substeps} substeps over t={t}"
    )


def number_moment(v: FockVector, delta):
    """||(N+1)^delta v|| computed sector-wise."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    weights = (v.basis.totals + 1.0) ** (2.0 * delta)
    return float(np.sqrt(np.sum(weights * np.abs(v.coeffs) ** 2)))


def fluctuation_apply(ms, n, trajectory, v: FockVector, t, plan=None):
    """W(t, 0) v: displace by sqrt(n) phi_0, evolve, undo by sqrt(n) phi_t.

    Returns (vector, combined_truncation_loss).  The basis must be truncated
    with headroom for displacement size sqrt(n) and the trajectory must cover
    [0, t].  A prebuilt plan for the 1/n-scaled Hamiltonian on this basis can
    be passed to amortize the factorization over many times.
    """
    basis = v.basis
    if basis.sector[0] != "truncated":
        raise SectorError("the fluctuation propagator needs a truncated basis")
    need = weyl_headroom(sqrt(n))
    if basis.n_max < need:
        raise SectorError(
            f"truncation n_max={basis.n_max} below headroom {need} for n={n}"
        )
    if not trajectory.t_min - 1e-12 <= t <= trajectory.t_max + 1e-12:
        raise SectorError(f"trajectory does not cover t={t}")
    if plan is None:
        plan = make_plan(build_hamiltonian(ms, n, basis))
    elif plan.basis != basis:
        raise SectorError("plan basis does not match the vector basis")

    phi0 = trajectory.at(0.0)
    phit = trajectory.at(t)
    w1, loss1 = weyl_apply(sqrt(n) * phi0, v)
    w2 = evolve_fock(plan, w1, t)
    w3, loss3 = weyl_apply(-sqrt(n) * phit, w2)
    return w3, loss1 + loss3
