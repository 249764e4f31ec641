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
from math import fsum, isfinite, sqrt

import numpy as np
import scipy.sparse as sp

from .errors import KrylovError, SectorError
from .fock import (FockVector, SparseOperator, _require_truncated, build_hamiltonian,
                   weyl_apply, weyl_headroom)
from .tolerances import DEFAULT_KRYLOV_TOL, SERIES_STOP_TOL, TIME_TOL, check_time_radius


@dataclass
class PropagatorPlan:
    """The Hamiltonian split as D + (H - D) and scaled for the Chebyshev
    series.

    ``phase`` holds D, the mean of H's diagonal over each state's number
    sector.  ``interval`` is the Gershgorin interval (lo, hi) of H - D, and
    ``scaled`` the CSR matrix B = (H - D - c)/r, with c and r the interval's
    centre and half-width.  A half-width below the smallest normal float
    leaves B = H - D - c unscaled; the series then stops at degree 0.
    ``method`` is always "krylov" (the result is a polynomial in H applied
    to the vector) and ``blocks`` always empty: nothing is factorized.
    """

    method: str
    basis: object
    blocks: list = field(default_factory=list)
    phase: np.ndarray = None
    interval: tuple = (0.0, 0.0)
    scaled: sp.csr_matrix = None


def make_plan(H: SparseOperator):
    """Check the Hamiltonian, split off the sector means of H's diagonal, and
    scale the rest to the Chebyshev interval."""
    if not H.hermitian:
        raise ValueError("propagation needs a Hermitian Hamiltonian")
    A, totals = H.matrix, H.basis.totals
    diag = A.diagonal().real
    # a fixed(n) basis leaves the sectors below n empty; they are never indexed
    means = np.bincount(totals, weights=diag) / np.maximum(np.bincount(totals), 1)
    phase = means[totals]
    radii = np.ravel(abs(A).sum(axis=1)) - np.abs(diag)  # off-diagonal row sums
    lo, hi = float(np.min(diag - phase - radii)), float(np.max(diag - phase + radii))
    scaled = (A - sp.diags(phase + (lo + hi) / 2)).tocsr()
    if (hi - lo) / 2 >= np.finfo(float).tiny:  # a subnormal width overflows the division
        scaled.data /= (hi - lo) / 2
    return PropagatorPlan(method="krylov", basis=H.basis, phase=phase, interval=(lo, hi),
                          scaled=scaled)


def _radius_bound(ms, n_scale, top):
    """An upper bound on the half-width r of ``make_plan``'s interval for
    ``build_hamiltonian(ms, n_scale, basis)`` on any basis of totals at most
    ``top``, from h and v alone: the Chebyshev series of ``evolve_fock`` to
    time t has about |t| r terms.

    H's diagonal at a state o of total N is sum_p h_pp o_p + q(o) / (2 n),
    where q(o) weighs v(p, q) by o_p o_q (p != q) and o_p (o_p - 1) (p = q),
    weights that sum to N^2 - N; D is its mean over the sector, so
    |H_oo - D_o| <= N (max h_pp - min h_pp) + (N^2 - N) (max v - min v) / (2 n).
    The row's off-diagonal sum, sum_{p != q} |h_pq| sqrt((o_p + 1) o_q), is
    at most the same sum of ((o_p + 1) + o_q) / 2, so at most N R + S / 2 with
    R the largest and S the total off-diagonal absolute row sum of h.  Both
    grow with N, and r is at most their sum at N = top.
    """
    hd = ms.h.diagonal().real
    rows = np.abs(ms.h - np.diag(ms.h.diagonal())).sum(axis=1)
    spread = (top * (hd.max() - hd.min())
              + (top * top - top) / n_scale * (ms.v.max() / 2 - ms.v.min() / 2))
    return float(spread + top * rows.max() + rows.sum() / 2)


def _bessel_series(x):
    """J_k(x) for k below the first index past |x| with |J_k(x)| <
    SERIES_STOP_TOL; past |x| the |J_k(x)| decrease in k.

    Miller's backward recurrence J_{k-1} = (2k / |x|) J_k - J_{k+1}, started
    at 1 and 0 another 12 |x|^(1/3) + 20 indices past the window of
    |x| + 12 |x|^(1/3) + 20 entries it keeps, where J has fallen some 30
    orders of magnitude below the stop, and normalized by J_0 + 2 sum_k J_2k
    = 1; a run that outgrows 1e250 is scaled down, so it cannot overflow
    however small |x| is.  For |x| <= MAX_TIME_RADIUS, the bound that
    ``evolve_fock`` checks first, the one window holds the stop (at
    |x| = 1e4 it is index 10248 of 10278).  J_k(-x) = (-1)^k J_k(x).  For
    |x| < 2 SERIES_STOP_TOL, J_1(x) = x / 2 is already below the stop, and
    the series is J_0 = 1.
    """
    a = abs(x)
    if a / 2 < SERIES_STOP_TOL:
        return np.array([1.0])
    size = int(a + 12 * a ** (1 / 3)) + 20
    top = size + int(12 * a ** (1 / 3)) + 20
    f = [0.0] * top + [1.0, 0.0]  # J_0 .. J_{top + 1}, up to a factor
    for k in range(top, 0, -1):
        f[k - 1] = 2 * k / a * f[k] - f[k + 1]
        if abs(f[k - 1]) > 1e250:
            scale = abs(f[k - 1])
            f[k - 1:] = [v / scale for v in f[k - 1:]]
    j = np.array(f[:size]) / fsum([f[0], *(2 * v for v in f[2::2])])
    j = j[:np.flatnonzero((np.arange(size) > a) & (np.abs(j) < SERIES_STOP_TOL))[0]]
    if x < 0:
        j[1::2] *= -1
    return j


def evolve_fock(plan: PropagatorPlan, v: FockVector, t):
    """U(t) v; unitary and number-conserving.  At t = 0 the series is J_0(0) = 1
    times a unit phase, so the result equals v (a zero part may change sign).

    Raises ValueError for a non-finite t, CapacityError when |t| r, r the
    half-width of the plan's interval, exceeds MAX_TIME_RADIUS (the series
    would take about |t| r products), and KrylovError, naming the cause, when
    the start vector is not finite, or when the result is not finite or its
    norm differs from ||v|| by more than DEFAULT_KRYLOV_TOL * ||v||.  The
    series' dropped tail lies below 16 SERIES_STOP_TOL ||v||, far under that
    bound, so only rounding moves the norm (``tolerances``).
    """
    if not isfinite(t):
        raise ValueError(f"propagation time t must be finite, got {t}")
    if v.basis != plan.basis:
        raise SectorError("vector does not live on the plan's basis")
    norm_in = np.linalg.norm(v.coeffs)
    if not isfinite(norm_in):  # a bad start state, named before the series runs on it
        raise KrylovError(f"propagation to t={t} got a start vector that is not finite")
    lo, hi = plan.interval
    check_time_radius(t, (hi - lo) / 2, f"evolve_fock: t={t} asks for |t r|")
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
    defect = abs(np.linalg.norm(out) - norm_in)
    if not defect <= DEFAULT_KRYLOV_TOL * norm_in:  # also catches inf and nan entries
        raise KrylovError(
            f"propagation to t={t} broke unitarity: norm defect {defect:.3e} "
            f"exceeds {DEFAULT_KRYLOV_TOL} * {norm_in:.3e}"
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
    What the truncation dropped is missing at amplitude level, so the result
    errs by about the square root of the loss reported.  The undoing
    displacement takes a wide vector, so ``weyl_apply`` raises
    ``CapacityError`` past 4 sites at n = 16 and 5 sites at n = 3 on a
    ``weyl_headroom`` basis.
    """
    basis = v.basis
    _require_truncated(basis, "the fluctuation propagator")
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
