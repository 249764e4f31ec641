"""Initial-state families: condensates, coherent states, partially factorized
states, and their normalized superpositions.

A partially factorized state theta_{n,m} puts n - m particles in a common
one-particle state phi and m particles in an excitation psi_m whose first
variable is orthogonal to phi.  With c_{n,m} = binom(n, m)^{1/2},

    theta_{n,m} = c_{n,m} S_n(phi^(n-m) (x) psi_m)
                = a*(phi)^(n-m) psi_m / sqrt((n-m)!),   ||theta_{n,m}|| = 1.

States are built in closed form: ``_create_power`` writes the amplitudes of
a*(f)^k v / sqrt(k!) at the ranks of o + j, o an occupation of v's support and
j one of fixed(k) (theta: v = psi_m, or the vacuum for the condensate
phi^(x)n = theta_{n,0}; excitation: one power per complement mode); a coherent
state is a per-mode Poisson product.
Tensor symmetrization and the d_{n,m}-scaled sector projection of the
Weyl-displaced excitation stay as independent theta oracles; the tensor
conversions, too, find each state by its ``rank``.
"""

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, exp, factorial, fsum, inf, lgamma, log, nan, pi, sqrt

import numpy as np

from .combinatorics import _check_admissible, log_dnm
from .errors import DegeneracyError, FocklabError, SectorError
from .fock import (
    FockVector,
    _embed_sector,
    _is_truncated,
    _require_truncated,
    enumerate_basis,
    field_apply,
    fixed,
    rank,
    truncated,
    vacuum,
    weyl_apply,
)
from .tolerances import (DISTINCTNESS_TOL, GRAM_FLOOR, INDEPENDENCE_TOL, ORTHOGONALITY_TOL,
                         OVERLAP_BOUND_ATOL, OVERLAP_BOUND_RTOL, POISSON_TAIL_FLOOR,
                         check_capacity, check_unit)


def _create_power(f, k, v):
    """a*(f)^k v / sqrt(k!) for v on a fixed(m) sector, in closed form: with j
    running over fixed(k), the support occupation o of v adds at the ranks of
    o + j the amplitudes v(o) sqrt(k!) prod_p f_p^j_p / j_p! sqrt((o + j)_p! / o_p!)."""
    d = v.basis.d
    out = enumerate_basis(d, fixed(v.basis.n_max + k))
    j = enumerate_basis(d, fixed(k)).occs
    log_fact = _log_factorials(out.n_max)  # log j!
    powers = np.asarray(f, dtype=complex) ** np.arange(k + 1)[:, None]  # f_p^j
    gain, log_j = powers[j, np.arange(d)].prod(axis=1), log_fact[j].sum(axis=1)
    coeffs = np.zeros(out.dim, dtype=complex)
    # at large k an amplitude can be inf * 0, where exp(log_amp) overflows and
    # f_p^j underflows; theta_state refuses the non-finite result
    with np.errstate(over="ignore", invalid="ignore"):
        for i in np.flatnonzero(v.coeffs):  # one vectorized pass per occupation o
            o = v.basis.occs[i]
            N = o + j
            log_amp = (0.5 * log_fact[N].sum(axis=1) + 0.5 * log_fact[k] - log_j
                       - 0.5 * log_fact[o].sum())
            coeffs[rank(out, N)] += v.coeffs[i] * np.exp(log_amp) * gain
    return FockVector(out, coeffs)


def product_state(phi, n, basis):
    """phi^(x)n, the partially factorized state theta_{n,0} = a*(phi)^n |0> / sqrt(n!)."""
    return theta_state(phi, None, n, "creation_polynomial", basis)


def _log_factorials(n):
    """log j! for j = 0..n: the logarithm of the exact j! while it is a finite
    float (j <= 170, correctly rounded), j (log j - 1) + ``_stirling_rest(j)``
    above (within 2 ulp of mpmath's loggamma)."""
    exact = np.array([log(factorial(i)) for i in range(min(n, 170) + 1)])
    if n <= 170:  # most calls: the array arithmetic below would cost ten times more
        return exact
    j = np.arange(171, n + 1, dtype=float)
    return np.concatenate([exact, j * (np.log(j) - 1) + _stirling_rest(j)])


def _xlogy(x, y):
    """x log(y) elementwise, 0 where x == 0 (also where y == 0), for y >= 0;
    the logarithms are ``math.log``'s."""
    logs = np.array([log(v) if v > 0 else -inf for v in np.ravel(y)]).reshape(np.shape(y))
    return x * np.where(x == 0, 0.0, logs)


# the coefficients of stirlerr(j) ~ 1/(12 j) - 1/(360 j^3) + 1/(1260 j^5) - ...
_STIRLING = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188)


def _stirlerr(j):
    """log j! - (j + 1/2) log j + j - log sqrt(2 pi) for an integer j >= 1, or
    elementwise for an array of integers j > 15: directly up to 15, else from
    as many terms of the asymptotic series as Loader's cuts at 15, 35, 80 and
    500 ask, summed from the smallest."""
    if np.ndim(j) == 0 and j <= 15:
        return log(factorial(j)) - (j + 0.5) * log(j) + j - 0.5 * log(2 * pi)
    jj, s = j * j, 0.0
    for k, cut in ((4, 35), (3, 80), (2, 500)):  # term k is used up to its cut
        s = np.where(j <= cut, (_STIRLING[k] - s) / jj, s)
    return (_STIRLING[0] - (_STIRLING[1] - s) / jj) / j


def _stirling_rest(j):
    """log j! - j (log j - 1) = log sqrt(2 pi j) + stirlerr(j), elementwise for
    an array of integers j > 15."""
    return 0.5 * np.log(j) + 0.5 * log(2 * pi) + _stirlerr(j)


def _bd0(x, m):
    """x log(x / m) + m - x, the deviance term, for x, m > 0.  Within a
    factor 3 of m it is the series (x - m) v + 2 x sum_j v^(2j+1) / (2j + 1),
    v = (x - m) / (x + m), whose terms shrink by v^2 <= 1/4 and do not
    cancel against the leading one for x > m."""
    if not abs(x - m) < (x + m) / 2:
        return x * log(x / m) + m - x
    v = (x - m) / (x + m)
    s, ej, j = (x - m) * v, 2 * x * v, 1
    while True:
        ej *= v * v
        s, last = s + ej / (2 * j + 1), s
        if s == last:
            return s
        j += 1


def _poisson_pmf(j, m):
    """P(N = j) for N ~ Poisson(m), m >= 0, in Loader's saddle-point form
    e^{-stirlerr(j) - bd0(j, m)} / sqrt(2 pi j) (as R's dpois), which keeps
    its relative error near rounding where e^{-m} m^j / j! would take the
    difference of two large logarithms."""
    if j == 0 or m == 0:
        return exp(-m) if j == 0 else 0.0
    return exp(-_stirlerr(j) - _bd0(j, m)) / sqrt(2 * pi * j)


def _poisson_tail(k, m):
    """P(N > k) for N ~ Poisson(m), m >= 0, and an integer k >= 0: the sum of
    the pmf from its end nearest the mode, j = k + 1 upwards when k + 2 > m,
    else j = k downwards, whose complement it then is.  Each term is the
    last times a ratio r < 1 that falls as j leaves the mode (m / (j + 1) up,
    j / m down), so what follows a term is at most term r / (1 - r); the sum
    stops where that cannot change it, after of order sqrt(m) terms (about
    8200 at m = 5e6).  The lower sum is below 1/2, so its complement keeps
    the relative error of the tail near rounding too.  ``_poisson_cutoff``
    bounds m by the state cap; an m that is not finite and >= 0 gives
    NaN, which fails every check it meets."""
    if not 0 <= m < inf:
        return nan
    up = k + 2 > m
    j = k + 1 if up else k
    total = term = _poisson_pmf(j, m)
    terms = [term]
    while True:
        r = m / (j + 1) if up else j / m
        if total + term * r / (1 - r) == total:
            break
        term *= r
        total += term
        terms.append(term)
        j += 1 if up else -1
    return fsum(terms) if up else 1.0 - fsum(terms)


@lru_cache(maxsize=256)
def _poisson_cutoff(n):
    """Smallest K with _poisson_tail(K, n) = P(N > K) <= POISSON_TAIL_FLOOR
    for N ~ Poisson(n), the particle number of C(sqrt(n) phi)|0> with |phi| =
    1.  The tail decreases in K and is of order 1/2 at floor(n), where the
    search starts: it doubles its step until the tail at hi is within the
    floor, then bisects between hi and lo, the last K above it (or
    floor(n) - 1).  Any basis that holds truncated(K) has at least
    floor(n) + 1 states, so an n above the state cap raises CapacityError
    before a tail is evaluated.  A sweep asks for each n's cutoff three
    times (the config parser's two passes over n_list, then the cell),
    hence the cache."""
    check_capacity(n, f"a coherent cell at n={n}: its basis")
    lo, hi = int(n) - 1, int(n)
    while _poisson_tail(hi, n) > POISSON_TAIL_FLOOR:
        lo, hi = hi, 3 * hi - 2 * lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _poisson_tail(mid, n) > POISSON_TAIL_FLOOR else (lo, mid)
    return hi


def _cell_sector(kind, n):
    """The sector of a sweep cell of component ``kind`` at particle number n:
    fixed(n), or for coherent states truncated at ``_poisson_cutoff(n)``,
    where the dropped Poisson mass is at most POISSON_TAIL_FLOOR."""
    return truncated(_poisson_cutoff(n)) if kind == "coherent" else fixed(n)


def coherent_state(phi, n, basis):
    """C(sqrt(n) phi)|0>, mean particle number n: the per-mode Poisson product
    prod_p e^{-|a_p|^2/2} a_p^o_p / sqrt(o_p!), a = sqrt(n) phi, magnitudes in
    log space so that every power stays finite at large n.

    The particle number is Poisson(n), so the state's squared norm on a
    truncated basis is 1 - ``_poisson_tail(n_max, n)``; a basis whose dropped
    mass exceeds POISSON_TAIL_FLOOR raises SectorError (``_poisson_cutoff(n)``
    is the smallest n_max accepted).
    """
    phi = check_unit(phi)
    _require_truncated(basis, "a coherent state")
    tail = _poisson_tail(basis.n_max, n)
    if not tail <= POISSON_TAIL_FLOOR:
        raise SectorError(
            f"truncation n_max={basis.n_max} drops Poisson mass {tail:.3e} above "
            f"{POISSON_TAIL_FLOOR} for mean number {n}"
        )
    a, o = sqrt(n) * phi, np.arange(basis.n_max + 1)[:, None]
    mean, j = np.abs(a) ** 2, o[171:]
    log_mag = _xlogy(o, np.abs(a)) - 0.5 * _log_factorials(basis.n_max)[:, None] - mean / 2
    # above o = 170 those terms reach 1e7 at n = 1e6 and cancel, off by about 1e-9:
    # there log_mag is -(bd0(o, |a|^2) + log sqrt(2 pi o) + stirlerr(o)) / 2, as
    # in ``_poisson_pmf``, and -inf in a mode with a = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mag[171:] = -(j * np.log1p((j - mean) / mean) - (j - mean) + _stirling_rest(j)) / 2
    factor = np.exp(log_mag + 1j * o * np.angle(a))  # mode p, occupation o
    return FockVector(basis, factor[basis.occs, np.arange(basis.d)].prod(axis=1))


@dataclass
class ExcitationState:
    """m-particle excitation orthogonal to the condensate in its first variable;
    m is the size of the fixed sector ``psi`` lives in."""

    psi: FockVector
    orthogonal_to: np.ndarray

    def __post_init__(self):
        if _is_truncated(self.psi.basis):
            raise SectorError("excitation vector must live in a fixed(m) sector")
        if self.m < 1:
            raise ValueError("excitation needs m >= 1")
        check_unit(self.psi.coeffs, "excitation")
        self.orthogonal_to = check_unit(self.orthogonal_to)
        if not _orthogonality_defect(self.orthogonal_to, self.psi) <= ORTHOGONALITY_TOL:
            raise ValueError("excitation is not first-variable orthogonal to phi")

    @property
    def m(self):
        return self.psi.basis.n_max


def _orthogonality_defect(phi, psi):
    """Norm of a(conj(phi)) psi; zero iff first-variable orthogonality holds."""
    return field_apply("annihilate", np.conj(phi), psi).norm()


def random_excitation(phi, m, seed):
    """Deterministic random psi_m on the fixed(m) sector of len(phi) modes,
    built on the orthogonal complement of phi.

    The complement modes come from a QR factorization of [phi | identity], so
    orthogonality holds by construction; the overall phase is fixed by making
    the first nonzero coefficient real positive.
    """
    phi = check_unit(phi)
    d = len(phi)
    if d < 2:
        raise ValueError("need d >= 2 for a nontrivial orthogonal complement")
    basis = enumerate_basis(d, fixed(m))
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
        for j in np.flatnonzero(occ):
            w = _create_power(complement[j], occ[j], w)
        psi += c * w.coeffs
    vec = FockVector(basis, psi).normalized()
    return ExcitationState(psi=vec, orthogonal_to=phi)


# ---------------------------------------------------------------------------
# the oracle constructions of theta_{n,m}


def _log_multinomial(basis):
    """log(prod_p o_p! / n!) for each state o of a fixed(n) basis, summed
    with ``math.lgamma`` mode by mode."""
    return [sum(lgamma(int(k) + 1) for k in occ) - lgamma(basis.n_max + 1) for occ in basis.occs]


def _tensor_from_fixed(v):
    """Dense symmetric tensor (d,)*n from a fixed-sector vector (oracle sizes
    only): the entry at an index tuple is read at the rank of its occupation."""
    basis, n, d = v.basis, v.basis.n_max, v.basis.d
    occs = np.eye(d, dtype=np.int64)[np.indices((d,) * n).reshape(n, d**n)].sum(axis=0)
    scaled = v.coeffs * np.array([exp(0.5 * x) for x in _log_multinomial(basis)])
    return scaled[rank(basis, occs)].reshape((d,) * n)


def _fixed_from_tensor(T, d, n):
    """Occupation coefficients of a symmetric tensor, read at each state's
    sorted index tuple."""
    basis = enumerate_basis(d, fixed(n))
    tuples = np.repeat(np.tile(np.arange(d), basis.dim), basis.occs.ravel()).reshape(basis.dim, n)
    return np.array([exp(-0.5 * x) for x in _log_multinomial(basis)]) * T[tuple(tuples.T)]


def _theta_symmetrize(phi, psi, n, m):
    """Explicit symmetrization: binom(n,m)^{-1/2} sum over excitation placements."""
    d = len(phi)
    psi_T = _tensor_from_fixed(psi)
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


def _theta_weyl(phi, psi, n, m):
    """d_{n,m} P_n C(sqrt(n) phi) acting on the embedded excitation.

    ``weyl_apply`` returns the projection of the untruncated image onto its
    basis, so its sector n does not depend on how far the basis reaches above
    n: the excitation is displaced on truncated(n), and the sector is sliced
    out of it (the mass above n, reported as truncation loss, is not needed).
    """
    work = enumerate_basis(len(phi), truncated(n))
    displaced, _loss = weyl_apply(sqrt(n) * phi, _embed_sector(psi.coeffs, m, work))
    return exp(log_dnm(n, m)) * displaced.coeffs[work.sector_slice(n)]


def theta_state(phi, excitation, n, method, basis):
    """Partially factorized n-particle state; excitation=None means m = 0, the
    vacuum as psi_0, which makes theta_{n,0} the condensate phi^(x)n.

    method: "creation_polynomial" (the closed form sweeps use) or the oracles
    "symmetrize" and "weyl_projection"; all return a unit vector, to rounding.
    """
    phi = check_unit(phi)
    m = 0 if excitation is None else excitation.m
    if m > n:
        raise ValueError(f"excitation size m={m} exceeds particle number n={n}")
    if excitation is not None:
        defect = _orthogonality_defect(phi, excitation.psi)
        if not defect <= ORTHOGONALITY_TOL:
            raise ValueError(
                f"excitation not orthogonal to phi (defect {defect:.2e})"
            )
    psi = vacuum(enumerate_basis(len(phi), fixed(0))) if excitation is None else excitation.psi
    if method == "symmetrize":
        coeffs = _theta_symmetrize(phi, psi, n, m)
    elif method == "creation_polynomial":  # a*(phi)^(n-m) psi_m / sqrt((n-m)!)
        coeffs = _create_power(phi, n - m, psi).coeffs
    elif method == "weyl_projection":
        coeffs = _theta_weyl(phi, psi, n, m)
    else:
        raise ValueError(f"unknown construction {method!r}")
    if not np.all(np.isfinite(coeffs)):
        raise FocklabError(f"theta state at n={n}, m={m} is not finite: a float overflows")
    return _embed_sector(coeffs, n, basis)


# ---------------------------------------------------------------------------
# superpositions

KINDS = ("product", "theta", "coherent")  # the component kinds of a state


@dataclass
class SuperpositionSpec:
    """Finitely many components of one family plus their raw coefficients.

    kind: one of KINDS.  For the theta family each component carries an
    excitation and the sizes m_i must be nondecreasing.
    """

    kind: str
    coeffs: np.ndarray
    phis: list
    excitations: list = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in KINDS:
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
            check_unit(p)
        for i, j in itertools.combinations(range(len(phis)), 2):
            if not abs(np.vdot(phis[i], phis[j])) < 1.0 - INDEPENDENCE_TOL:
                raise ValueError("components must be linearly independent")
    else:
        for i, j in itertools.combinations(range(len(phis)), 2):
            if not np.linalg.norm(phis[i] - phis[j]) > DISTINCTNESS_TOL:
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
        if not abs(g) <= bound * (1.0 + OVERLAP_BOUND_RTOL) + OVERLAP_BOUND_ATOL:
            raise FocklabError(
                f"theta overlap {abs(g):.3e} violates its factorial bound {bound:.3e}"
            )
        return g
    raise ValueError(f"unknown overlap kind {kind!r}")


def component_states(spec, n, basis):
    """The family members entering a superposition, as vectors (product: m = 0 theta)."""
    if spec.kind == "coherent":
        return [coherent_state(p, n, basis) for p in spec.phis]
    excs = spec.excitations if spec.kind == "theta" else [None] * len(spec.phis)
    return [theta_state(p, e, n, "creation_polynomial", basis) for p, e in zip(spec.phis, excs)]


def superposition(spec, n, basis):
    """Normalized superposition at scale n; returns (state, coeffs_n).

    coeffs_n = coeffs / sqrt(c^H G c) with G the Gram matrix of the
    component vectors on ``basis``, so the returned state has unit norm.
    """
    if spec.kind == "theta":
        for m in spec.m_schedule:
            _check_admissible(m, n)
    state, coeffs_n, _ = _combine_components(spec.coeffs, component_states(spec, n, basis))
    return state, coeffs_n


def _combine_components(coeffs, comps):
    """The normalized combination sum_i c_i comps[i] / sqrt(c^H G c) of the
    unit vectors ``comps`` on one basis, where G has a unit diagonal and
    ``comps[i].inner(comps[j])`` off it; returns (state, coeffs_n, G).

    Raises DegeneracyError when G's smallest eigenvalue is below GRAM_FLOOR,
    or when c^H G c is below the smallest normal float: a subnormal square
    norm keeps only a few bits, so the normalized coefficients would be
    wrong."""
    k = len(comps)
    G = np.eye(k, dtype=complex)
    for i, j in itertools.combinations(range(k), 2):
        G[i, j] = comps[i].inner(comps[j])
        G[j, i] = np.conj(G[i, j])
    if not np.min(np.linalg.eigvalsh(G)) >= GRAM_FLOOR:
        raise DegeneracyError("component Gram matrix is numerically singular")
    quad = float(np.real(np.conj(coeffs) @ G @ coeffs))
    if not quad >= np.finfo(float).tiny:
        raise DegeneracyError("superposition has numerically vanishing norm")
    coeffs_n = coeffs / sqrt(quad)
    total = np.zeros(comps[0].basis.dim, dtype=complex)
    for c, comp in zip(coeffs_n, comps):
        total += c * comp.coeffs
    return FockVector(comps[0].basis, total), coeffs_n, G
