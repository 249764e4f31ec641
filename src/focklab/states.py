"""Initial-state families: condensates, coherent states, partially factorized
states, and their normalized superpositions.

A partially factorized state theta_{n,m} puts n - m particles in a common
one-particle state phi and m particles in an excitation psi_m whose first
variable is orthogonal to phi.  With c_{n,m} = binom(n, m)^{1/2},

    theta_{n,m} = c_{n,m} S_n(phi^(n-m) (x) psi_m)
                = a*(phi)^(n-m) psi_m / sqrt((n-m)!),   ||theta_{n,m}|| = 1.

States are built in closed form: ``_create_power`` writes the amplitudes of
a*(f)^k v / sqrt(k!) (theta: v = psi_m; product: v = vacuum; excitation: one
power per complement mode); a coherent state is a per-mode Poisson product.
Tensor symmetrization and the d_{n,m}-scaled sector projection of the
Weyl-displaced excitation stay as independent theta oracles.
"""

import itertools
from dataclasses import dataclass, field
from math import comb, exp, inf, lgamma, sqrt

import numpy as np
from scipy.special import gammaln

from .combinatorics import admissible_m, log_dnm
from .errors import DegeneracyError, FocklabError, SectorError
from .fock import (
    FockVector,
    enumerate_basis,
    field_apply,
    fixed,
    sector_project,
    truncated,
    vacuum,
    weyl_apply,
    weyl_headroom,
)

UNIT_NORM_TOL = 1e-10
ORTHOGONALITY_TOL = 1e-10


def _check_unit(phi, what="phi"):
    phi = np.asarray(phi, dtype=complex)
    if abs(np.linalg.norm(phi) - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"{what} must be normalized to 1 +- {UNIT_NORM_TOL}")
    return phi


def _embed_sector(coeffs_fixed, n, basis):
    """Place fixed(n) coefficients into the requested basis."""
    if basis.sector == ("fixed", n):
        return FockVector(basis, coeffs_fixed)
    if basis.sector[0] == "truncated" and basis.n_max >= n:
        c = np.zeros(basis.dim, dtype=complex)
        c[basis.sector_slice(n)] = coeffs_fixed
        return FockVector(basis, c)
    raise SectorError(f"basis {basis.sector} does not contain sector {n}")


def _create_power(f, k, v):
    """a*(f)^k v / sqrt(k!) for v on a fixed(m) sector, in closed form: at an
    occupation N of fixed(m + k), with j = N - o >= 0, the sum over the support
    of v of v(o) sqrt(k!) prod_p f_p^j_p / j_p! sqrt(N_p! / o_p!)."""
    out = enumerate_basis(v.basis.d, fixed(v.basis.n_max + k))
    powers = np.asarray(f, dtype=complex) ** np.arange(k + 1)[:, None]  # f_p^j
    log_fact = gammaln(np.arange(out.n_max + 1) + 1.0)  # log j!
    log_target = 0.5 * log_fact[out.occs].sum(axis=1) + 0.5 * log_fact[k]
    coeffs, modes = np.zeros(out.dim, dtype=complex), np.arange(v.basis.d)
    for i in np.flatnonzero(v.coeffs):  # one vectorized pass per occupation o
        o = v.basis.occs[i]
        hit = np.all(out.occs >= o, axis=1)
        j = out.occs[hit] - o
        log_amp = log_target[hit] - log_fact[j].sum(axis=1) - 0.5 * log_fact[o].sum()
        coeffs[hit] += v.coeffs[i] * np.exp(log_amp) * powers[j, modes].prod(axis=1)
    return FockVector(out, coeffs)


def product_state(phi, n, basis):
    """phi^(x)n = a*(phi)^n |0> / sqrt(n!): amplitudes sqrt(n!/prod occ!) prod phi^occ."""
    phi = _check_unit(phi)
    vac = vacuum(enumerate_basis(len(phi), fixed(0)))
    return _embed_sector(_create_power(phi, n, vac).coeffs, n, basis)


def coherent_state(phi, n, basis):
    """C(sqrt(n) phi)|0>, mean particle number n: the per-mode Poisson product
    prod_p e^{-|a_p|^2/2} a_p^o_p / sqrt(o_p!), a = sqrt(n) phi, magnitudes in
    log space so that no power overflows at large n."""
    phi = _check_unit(phi)
    if basis.sector[0] != "truncated":
        raise SectorError("coherent states need a truncated basis")
    need = weyl_headroom(sqrt(n))
    if n > 0 and basis.n_max < need:
        raise SectorError(
            f"truncation n_max={basis.n_max} below headroom {need} for mean number {n}"
        )
    a, o = sqrt(n) * phi, np.arange(basis.n_max + 1)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 where a_p = 0
        log_pow = np.where(o > 0, o * np.log(np.abs(a)), 0.0)
    log_mag = log_pow - 0.5 * gammaln(o + 1.0) - np.abs(a) ** 2 / 2
    factor = np.exp(log_mag) * np.exp(1j * np.angle(a)) ** o  # mode p, occupation o
    return FockVector(basis, factor[basis.occs, np.arange(basis.d)].prod(axis=1))


@dataclass
class ExcitationState:
    """m-particle excitation orthogonal to the condensate in its first variable."""

    m: int
    psi: FockVector
    orthogonal_to: np.ndarray

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("excitation needs m >= 1")
        if self.psi.basis.sector != ("fixed", self.m):
            raise SectorError("excitation vector must live in the fixed(m) sector")
        if abs(self.psi.norm() - 1.0) > UNIT_NORM_TOL:
            raise ValueError("excitation must be normalized")
        self.orthogonal_to = _check_unit(self.orthogonal_to)
        if _orthogonality_defect(self.orthogonal_to, self.psi) > ORTHOGONALITY_TOL:
            raise ValueError("excitation is not first-variable orthogonal to phi")


def _orthogonality_defect(phi, psi):
    """Norm of a(conj(phi)) psi; zero iff first-variable orthogonality holds."""
    return field_apply("annihilate", np.conj(phi), psi).norm()


def random_excitation(phi, m, basis, seed):
    """Deterministic random psi_m built on the orthogonal complement of phi.

    The complement modes come from a QR factorization of [phi | identity], so
    orthogonality holds by construction; the overall phase is fixed by making
    the first nonzero coefficient real positive.
    """
    phi = _check_unit(phi)
    d = len(phi)
    if d < 2:
        raise ValueError("need d >= 2 for a nontrivial orthogonal complement")
    if basis.sector != ("fixed", m) or basis.d != d:
        raise SectorError("basis must be the fixed(m) sector on the same modes")
    q, _ = np.linalg.qr(np.concatenate([phi[:, None], np.eye(d)], axis=1))
    complement = [q[:, j] for j in range(1, d)]

    virt = enumerate_basis(d - 1, fixed(m))
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(virt.dim) + 1j * rng.standard_normal(virt.dim)
    coeff /= np.linalg.norm(coeff)
    lead = np.flatnonzero(np.abs(coeff) > 0)[0]
    coeff *= np.conj(coeff[lead]) / np.abs(coeff[lead])

    psi = np.zeros(basis.dim, dtype=complex)
    for c, occ in zip(coeff, virt.occs):
        w = vacuum(enumerate_basis(d, fixed(0)))
        for g, reps in zip(complement, occ):
            w = _create_power(g, reps, w)
        psi += c * w.coeffs
    vec = FockVector(basis, psi).normalized()
    return ExcitationState(m=m, psi=vec, orthogonal_to=phi)


# ---------------------------------------------------------------------------
# the oracle constructions of theta_{n,m}


def _tensor_from_fixed(v):
    """Dense symmetric tensor (d,)*n from a fixed-sector vector (oracle sizes only)."""
    basis = v.basis
    n = basis.sector[1]
    d = basis.d
    T = np.zeros((d,) * n, dtype=complex)
    for idx in np.ndindex(*[d] * n):
        occ = np.bincount(idx, minlength=d)
        amp = v.coeffs[basis.index_of(occ)]
        if amp != 0:
            scale = exp(0.5 * (sum(lgamma(k + 1) for k in occ) - lgamma(n + 1)))
            T[idx] = amp * scale
    return T


def _fixed_from_tensor(T, d, n):
    """Occupation coefficients of a symmetric tensor."""
    basis = enumerate_basis(d, fixed(n))
    coeffs = np.zeros(basis.dim, dtype=complex)
    for i, occ in enumerate(basis.occs):
        rep = tuple(itertools.chain.from_iterable([p] * int(k) for p, k in enumerate(occ)))
        scale = exp(0.5 * (lgamma(n + 1) - sum(lgamma(int(k) + 1) for k in occ)))
        coeffs[i] = scale * T[rep]
    return coeffs


def _theta_symmetrize(phi, excitation, n, m):
    """Explicit symmetrization: binom(n,m)^{-1/2} sum over excitation placements."""
    d = len(phi)
    psi_T = np.ones((), dtype=complex) if m == 0 else _tensor_from_fixed(excitation.psi)
    letters = "abcdefghijklmnop"[:n]
    total = np.zeros((d,) * n, dtype=complex)
    for J in itertools.combinations(range(n), m):
        subs = []
        operands = []
        for i in range(n):
            if i not in J:
                subs.append(letters[i])
                operands.append(phi)
        subs.append("".join(letters[i] for i in J))
        operands.append(psi_T)
        total += np.einsum(",".join(subs) + "->" + letters, *operands)
    return _fixed_from_tensor(total / sqrt(comb(n, m)), d, n)


def _theta_weyl(phi, excitation, n, m):
    """d_{n,m} P_n C(sqrt(n) phi) acting on the embedded excitation."""
    d = len(phi)
    work = enumerate_basis(d, truncated(max(n, weyl_headroom(sqrt(n)))))
    seed = vacuum(work) if m == 0 else _embed_sector(excitation.psi.coeffs, m, work)
    displaced, _loss = weyl_apply(sqrt(n) * phi, seed)
    proj = sector_project(n, displaced)
    scaled = exp(log_dnm(n, m)) * proj.coeffs[work.sector_slice(n)]
    return scaled


def theta_state(phi, excitation, n, method, basis):
    """Partially factorized n-particle state; excitation=None means m = 0.

    method: "creation_polynomial" (the closed form sweeps use) or the oracles
    "symmetrize" and "weyl_projection"; all return a unit vector (the weyl
    route up to its truncation loss, < 1e-10 under the headroom rule).
    """
    phi = _check_unit(phi)
    m = 0 if excitation is None else excitation.m
    if m > n:
        raise ValueError(f"excitation size m={m} exceeds particle number n={n}")
    if excitation is not None:
        defect = _orthogonality_defect(phi, excitation.psi)
        if defect > ORTHOGONALITY_TOL:
            raise ValueError(
                f"excitation not orthogonal to phi (defect {defect:.2e})"
            )
    if method == "symmetrize":
        coeffs = _theta_symmetrize(phi, excitation, n, m)
    elif method == "creation_polynomial":  # a*(phi)^(n-m) psi_m / sqrt((n-m)!)
        psi = vacuum(enumerate_basis(len(phi), fixed(0))) if m == 0 else excitation.psi
        coeffs = _create_power(phi, n - m, psi).coeffs
    elif method == "weyl_projection":
        coeffs = _theta_weyl(phi, excitation, n, m)
    else:
        raise ValueError(f"unknown construction {method!r}")
    return _embed_sector(coeffs, n, basis)


# ---------------------------------------------------------------------------
# superpositions


@dataclass
class SuperpositionSpec:
    """Finitely many components of one family plus their raw coefficients.

    kind: "product" | "theta" | "coherent".  For the theta family each
    component carries an excitation and the sizes m_i must be nondecreasing.
    """

    kind: str
    coeffs: np.ndarray
    phis: list
    excitations: list = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in ("product", "theta", "coherent"):
            raise ValueError(f"unknown superposition kind {self.kind!r}")
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        self.phis = [np.asarray(p, dtype=complex) for p in self.phis]
        if len(self.coeffs) != len(self.phis) or len(self.phis) == 0:
            raise ValueError("need one coefficient per component")
        if self.kind == "theta" and len(self.excitations) != len(self.phis):
            raise ValueError("theta superposition needs one excitation per component")
        _check_components(self.kind, self.coeffs, self.phis, self.m_schedule or [])

    @property
    def m_schedule(self):
        if self.kind != "theta":
            return None
        return [0 if e is None else e.m for e in self.excitations]


def _check_components(kind, coeffs, phis, ms):
    """Raise ValueError unless ``coeffs`` and ``phis`` (and for the theta
    family the excitation sizes ``ms``) make a superposition of ``kind``."""
    if not 0 < float(np.sum(np.abs(coeffs) ** 2)) < inf:
        raise ValueError("coefficients must have a finite, nonzero norm")
    if any(a > b for a, b in zip(ms, ms[1:])):
        raise ValueError(f"excitation sizes {list(ms)} must be nondecreasing")
    if kind in ("product", "theta"):
        for p in phis:
            _check_unit(p)
        for i, j in itertools.combinations(range(len(phis)), 2):
            if abs(np.vdot(phis[i], phis[j])) >= 1.0 - 1e-12:
                raise ValueError("components must be linearly independent")
    else:
        for i, j in itertools.combinations(range(len(phis)), 2):
            if np.linalg.norm(phis[i] - phis[j]) <= 1e-12:
                raise ValueError("coherent components must be distinct")


def gram_overlap(kind, item_i, item_j, n):
    """Pairwise overlap of two family members at particle scale n.

    product:  <phi_i, phi_j>^n (closed form).
    coherent: e^{i n Im<phi_i, phi_j>} e^{-n ||phi_j - phi_i||^2 / 2}.
    theta:    numeric inner product in the fixed(n) sector; items are
              (phi, excitation) pairs and the factorial overlap bound
              (m+1) (m!)^2 n^m |<phi_i, phi_j>|^{n-2m} is enforced.
    """
    if kind == "product":
        return complex(np.vdot(item_i, item_j)) ** n
    if kind == "coherent":
        ov = complex(np.vdot(item_i, item_j))
        dist2 = float(np.linalg.norm(np.asarray(item_j) - np.asarray(item_i)) ** 2)
        return np.exp(1j * n * ov.imag) * np.exp(-n * dist2 / 2.0)
    if kind == "theta":
        phi_i, exc_i = item_i
        phi_j, exc_j = item_j
        basis = enumerate_basis(len(phi_i), fixed(n))
        ti = theta_state(phi_i, exc_i, n, "creation_polynomial", basis)
        tj = theta_state(phi_j, exc_j, n, "creation_polynomial", basis)
        g = ti.inner(tj)
        m = max(0 if exc_i is None else exc_i.m, 0 if exc_j is None else exc_j.m)
        base = abs(complex(np.vdot(phi_i, phi_j)))
        power = base ** (n - 2 * m) if (base > 0 or n - 2 * m == 0) else 0.0
        bound = (m + 1.0) * exp(2.0 * lgamma(m + 1)) * float(n) ** m * power
        if abs(g) > bound * (1.0 + 1e-9) + 1e-12:
            raise FocklabError(
                f"theta overlap {abs(g):.3e} violates its factorial bound {bound:.3e}"
            )
        return g
    raise ValueError(f"unknown overlap kind {kind!r}")


def component_states(spec, n, basis):
    """The individual family members entering a superposition, as vectors."""
    if spec.kind == "product":
        return [product_state(p, n, basis) for p in spec.phis]
    if spec.kind == "theta":
        return [
            theta_state(p, e, n, "creation_polynomial", basis)
            for p, e in zip(spec.phis, spec.excitations)
        ]
    return [coherent_state(p, n, basis) for p in spec.phis]


def superposition(spec, n, basis):
    """Normalized superposition at scale n; returns (state, coeffs_n).

    coeffs_n = coeffs / sqrt(c^H G c) with G the Gram matrix of the
    component vectors on ``basis``, so the returned state has unit norm.
    """
    if spec.kind == "theta":
        for m in spec.m_schedule:
            if m > admissible_m(n):
                raise ValueError(
                    f"excitation size {m} exceeds admissible bound {admissible_m(n)} at n={n}"
                )
    state, coeffs_n, _ = _combine_components(spec.coeffs, component_states(spec, n, basis))
    return state, coeffs_n


def _combine_components(coeffs, comps):
    """The normalized combination sum_i c_i comps[i] / sqrt(c^H G c) of the
    unit vectors ``comps`` on one basis, where G has a unit diagonal and
    ``comps[i].inner(comps[j])`` off it; returns (state, coeffs_n, G)."""
    k = len(comps)
    G = np.eye(k, dtype=complex)
    for i, j in itertools.combinations(range(k), 2):
        G[i, j] = comps[i].inner(comps[j])
        G[j, i] = np.conj(G[i, j])
    if np.min(np.linalg.eigvalsh(G)) < 1e-12:
        raise DegeneracyError("component Gram matrix is numerically singular")
    quad = float(np.real(np.conj(coeffs) @ G @ coeffs))
    if quad <= 0:
        raise DegeneracyError("superposition has numerically vanishing norm")
    coeffs_n = coeffs / sqrt(quad)
    total = np.zeros(comps[0].basis.dim, dtype=complex)
    for c, comp in zip(coeffs_n, comps):
        total += c * comp.coeffs
    return FockVector(comps[0].basis, total), coeffs_n, G
