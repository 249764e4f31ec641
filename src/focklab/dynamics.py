"""Exact propagation U(t) = exp(-i t H) on truncated Fock bases.

H commutes with the number operator N, so it commutes with the diagonal D
that gives each state the mean of H's diagonal over its number sector, and

    exp(-i t H) = exp(-i t D) exp(-i t (H - D))

exactly.  The first factor is a phase per state.  The second is applied by
scipy's ``expm_multiply``, the truncated Taylor method of Al-Mohy & Higham,
SIAM J. Sci. Comput. 33 (2011), through sparse products with H - D; it never
forms or factorizes a matrix, so one code path serves every dimension.  Its
cost grows with |t| ||H - D||_1, and on truncated bases removing the sector
means takes out most of the interaction diagonal of the high sectors, which
sets that norm.  Long times are split into equal steps small enough that
scipy chooses its Taylor degree from the exact 1-norm alone (see
``STEP_NORM``), which makes every result a function of (H, v, t) only.  The
result is unitary and number-conserving up to rounding; ``evolve_fock``
checks the norm of each output against the plan's tolerance.

The mean-field frame propagator

    W(t, t0) = C*(sqrt(n) phi_t) U(t - t0) C(sqrt(n) phi_0)

is applied as three explicit factors; the Weyl factors are dense in the
occupation basis and are never assembled as matrices.
"""

from dataclasses import dataclass, field
from math import ceil, sqrt

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply
from scipy.sparse.linalg import norm as sparse_norm

from .errors import KrylovError, SectorError
from .fock import (
    FockVector,
    SparseOperator,
    build_hamiltonian,
    weyl_apply,
    weyl_headroom,
)
from .tolerances import DEFAULT_KRYLOV_TOL, TIME_TOL

# expm_multiply shifts A by mu = tr(A)/dim.  While ||A - mu||_1 is at most
# 2 ell p_max (p_max + 3) theta_55 / 55 = 63.4 (condition (3.13) of Al-Mohy &
# Higham, with scipy's ell = 2, p_max = 8), it picks its Taylor degree and
# step count from that exact norm; above it, it estimates norms of powers of
# A with probe vectors drawn from numpy's global random generator.  Steps
# with t * plan.shifted_norm <= STEP_NORM stay on the exact side.
STEP_NORM = 60.0


@dataclass
class PropagatorPlan:
    """The Hamiltonian split as D + (H - D), and the norm-defect tolerance
    its propagation checks; H itself is not kept.

    ``phase`` holds D, the mean of H's diagonal over each state's number
    sector, and ``shifted`` the CSR matrix H - D.  ``shifted_norm`` is
    ||(H - D) - tr(H - D)/dim||_1, the exact 1-norm that ``expm_multiply``
    sees once it removes its own trace shift; on a fixed basis D is the
    constant tr(H)/dim.  ``method`` is always "krylov" (the result is a
    polynomial in H applied to the vector) and ``blocks`` is always empty:
    nothing is factorized.
    """

    method: str
    basis: object
    tol: float = DEFAULT_KRYLOV_TOL
    blocks: list = field(default_factory=list)
    shifted_norm: float = 0.0
    phase: np.ndarray = None
    shifted: sp.csr_matrix = None


def make_plan(H: SparseOperator, tol=DEFAULT_KRYLOV_TOL):
    """Check the Hamiltonian and the tolerance, and split off the sector
    means of H's diagonal."""
    if not H.hermitian:
        raise ValueError("propagation needs a Hermitian Hamiltonian")
    if tol > DEFAULT_KRYLOV_TOL:
        raise ValueError(f"krylov tolerance must be <= {DEFAULT_KRYLOV_TOL}")
    dim = H.basis.dim
    totals = H.basis.totals
    diag = H.matrix.diagonal().real
    # a fixed(n) basis leaves the sectors below n empty; they are never indexed
    means = np.bincount(totals, weights=diag) / np.maximum(np.bincount(totals), 1)
    phase = means[totals]
    shifted = (H.matrix - sp.diags(phase)).tocsr()
    shift = shifted.diagonal().sum() / dim
    shifted_norm = sparse_norm(shifted - shift * sp.identity(dim), 1)
    return PropagatorPlan(method="krylov", basis=H.basis, tol=tol,
                          shifted_norm=float(shifted_norm), phase=phase,
                          shifted=shifted)


def evolve_fock(plan: PropagatorPlan, v: FockVector, t):
    """U(t) v; unitary and number-conserving.

    Raises KrylovError when the result is not finite or its norm differs
    from ||v|| by more than plan.tol * ||v||.
    """
    if v.basis != plan.basis:
        raise SectorError("vector does not live on the plan's basis")
    if t == 0:
        return v.copy()
    steps = max(1, ceil(abs(t) * plan.shifted_norm / STEP_NORM))
    step = -1j * (t / steps) * plan.shifted
    out = np.exp(-1j * t * plan.phase) * v.coeffs
    for _ in range(steps):
        out = expm_multiply(step, out)
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
    if delta < 0:
        raise ValueError("delta must be >= 0")
    weights = (v.basis.totals + 1.0) ** (2.0 * delta)
    return float(np.sqrt(np.sum(weights * np.abs(v.coeffs) ** 2)))


def fluctuation_apply(ms, n, trajectory, v: FockVector, t, plan=None):
    """W(t, 0) v: displace by sqrt(n) phi_0, evolve, undo by sqrt(n) phi_t.

    Returns (vector, combined_truncation_loss).  The basis must be truncated
    with headroom for displacement size sqrt(n) and the trajectory must cover
    [0, t].  A prebuilt plan for the 1/n-scaled Hamiltonian on this basis can
    be passed to reuse one Hamiltonian build over many times.
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
