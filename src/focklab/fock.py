"""Truncated symmetric Fock space over d modes.

Occupation-number (bosonic) representation: a basis state is a tuple
(n_0, ..., n_{d-1}) of mode occupations.  A basis is either a fixed
total-number sector or the full space truncated at a maximal total occupation.

Ordering convention (fixes all file formats): states are grouped by total
occupation (ascending) and, within each sector, enumerated in descending
lexicographic order, so for d=2, total=2 the order is (2,0), (1,1), (0,2).

Smeared operators follow the linear-in-argument convention

    a(f)  = sum_p f_p a_p,      a*(f) = sum_p f_p a+_p,

so that [a(f), a*(g)] = sum_p f_p g_p with no complex conjugate, and the
adjoint of a*(f) is a(conj(f)).  The Weyl displacement is

    C(alpha) = exp(a*(alpha) - a(conj(alpha)))
             = exp(-|alpha|^2/2) exp(a*(alpha)) exp(-a(conj(alpha))),

and, since the modes commute, the product over p of the one-mode factors
exp(-conj(alpha_p) a_p) (all applied first) and exp(alpha_p a+_p).  Each is
one closed-form triangular (n_max + 1)^2 matrix acting on the lines of
states that differ only in mode p.  Annihilation stays inside the truncated
basis and creation only raises, so dropping what leaves the basis after each
factor gives exactly the projection of the untruncated image: 1 -
||C(alpha) v||^2 is the exact truncation loss.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb
import json

import numpy as np
import scipy.sparse as sparse

from .errors import CapacityError, SectorError
from .modes import ModeSystem
from .tolerances import HERMITICITY_TOL

DEFAULT_STATE_CAP = 5_000_000


def fixed(n):
    """Sector spec: all occupation tuples with total exactly n."""
    if n < 0:
        raise ValueError("fixed sector needs n >= 0")
    return ("fixed", int(n))


def truncated(n_max):
    """Sector spec: all occupation tuples with total <= n_max."""
    if n_max < 0:
        raise ValueError("truncated sector needs n_max >= 0")
    return ("truncated", int(n_max))


def sector_dimension(d, sector):
    kind, n = sector
    if kind == "fixed":
        return comb(n + d - 1, d - 1)
    if kind == "truncated":
        return comb(n + d, d)
    raise ValueError(f"unknown sector kind {kind!r}")


def _compositions(total, slots):
    """All occupation tuples with the given total, descending lexicographic."""
    if slots == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def rank(basis, occs):
    """Index in ``basis`` of every row of the (m, d) occupation array ``occs``.

    Closed form of the basis order (combinatorial number system): with the
    suffix totals s_i = n_i + ... + n_{d-1}, the states before a row within
    its sector number sum_{i=1}^{d-1} C(s_i + d-i-1, d-i), and on a truncated
    basis the lower sectors add C(s_0 + d-1, d) more.  Rows must lie in the
    basis; ``FockBasis.index_of`` is the checked single-state form.
    """
    d = basis.d
    first = 0 if basis.sector[0] == "truncated" else 1
    slots = np.arange(d, 0, -1)[first:]  # d - i
    binom = np.array(
        [[comb(s + k - 1, k) for k in range(1, d + 1)] for s in range(basis.n_max + 1)],
        dtype=np.int64,
    )
    suffix = np.cumsum(occs[:, ::-1], axis=1)[:, ::-1]
    return binom[suffix[:, first:], slots - 1].sum(axis=1)


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Occupation-number basis; indices follow from ``rank``."""

    d: int
    sector: tuple
    occs: np.ndarray          # (dim, d) int array, row i = occupation tuple i

    @property
    def dim(self):
        return self.occs.shape[0]

    @property
    def totals(self):
        """(dim,) total occupation per state."""
        return self.occs.sum(axis=1)

    @property
    def n_max(self):
        return int(self.sector[1])

    def __eq__(self, other):
        return (
            isinstance(other, FockBasis)
            and self.d == other.d
            and self.sector == other.sector
        )

    def __hash__(self):
        return hash((self.d, self.sector))

    def index_of(self, occ):
        """Index of one occupation tuple; KeyError if it is not in the basis."""
        row = np.asarray(occ, dtype=np.int64)
        kind, n = self.sector
        if (row.shape != (self.d,) or row.min() < 0
                or row.sum() > n or (kind == "fixed" and row.sum() != n)):
            raise KeyError(tuple(occ))
        return int(rank(self, row[None, :])[0])

    def sector_slice(self, n):
        """Contiguous slice of the states with total occupation n."""
        kind, cap = self.sector
        if kind == "fixed":
            if n != cap:
                raise SectorError(f"basis holds only sector {cap}, asked for {n}")
            return slice(0, self.dim)
        if not 0 <= n <= cap:
            raise SectorError(f"sector {n} outside truncation n_max={cap}")
        return slice(comb(n + self.d - 1, self.d), comb(n + self.d, self.d))


@lru_cache(maxsize=256)
def _enumerate_cached(d, sector, cap):
    dim = sector_dimension(d, sector)
    if dim > cap:
        raise CapacityError(
            f"basis (d={d}, sector={sector}) has {dim} states, cap is {cap}"
        )
    kind, n = sector
    sectors = [n] if kind == "fixed" else range(n + 1)
    rows = [occ for k in sectors for occ in _compositions(k, d)]
    return FockBasis(d=d, sector=sector, occs=np.array(rows, dtype=np.int64))


def enumerate_basis(d, sector, cap=DEFAULT_STATE_CAP):
    """Build (or fetch the cached) occupation basis for the given sector."""
    if d < 1:
        raise ValueError("need d >= 1 modes")
    kind, n = sector
    if kind not in ("fixed", "truncated"):
        raise ValueError(f"unknown sector kind {kind!r}")
    if n < 0:
        raise ValueError("sector size must be >= 0")
    return _enumerate_cached(int(d), (kind, int(n)), int(cap))


@dataclass
class FockVector:
    """Complex coefficient vector over a FockBasis."""

    basis: FockBasis
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.basis.dim,):
            raise ValueError(
                f"coefficient vector has shape {c.shape}, basis dim {self.basis.dim}"
            )
        self.coeffs = c

    def norm(self):
        return float(np.linalg.norm(self.coeffs))

    def inner(self, other):
        """<self, other> (antilinear in self)."""
        self._check_same_basis(other)
        return complex(np.vdot(self.coeffs, other.coeffs))

    def normalized(self):
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return FockVector(self.basis, self.coeffs / n)

    def sector_norms(self):
        """||P_n v|| for every total occupation n present in the basis."""
        w = np.abs(self.coeffs) ** 2
        out = np.bincount(self.basis.totals, weights=w, minlength=self.basis.n_max + 1)
        return np.sqrt(out)

    def copy(self):
        return FockVector(self.basis, self.coeffs.copy())

    def _check_same_basis(self, other):
        if self.basis != other.basis:
            raise SectorError("vectors live on different bases")

    def __add__(self, other):
        self._check_same_basis(other)
        return FockVector(self.basis, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_same_basis(other)
        return FockVector(self.basis, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return FockVector(self.basis, self.coeffs * scalar)

    __rmul__ = __mul__


def vacuum(basis):
    kind, _ = basis.sector
    if kind == "fixed" and basis.sector[1] != 0:
        raise SectorError("vacuum lives in sector 0")
    c = np.zeros(basis.dim, dtype=complex)
    c[basis.index_of((0,) * basis.d)] = 1.0
    return FockVector(basis, c)


def basis_state(basis, occ):
    """Unit vector on a single occupation tuple."""
    c = np.zeros(basis.dim, dtype=complex)
    c[basis.index_of(occ)] = 1.0
    return FockVector(basis, c)


@dataclass
class SparseOperator:
    """Sparse matrix acting on a FockBasis, with an optional Hermiticity pledge."""

    basis: FockBasis
    matrix: sparse.csr_matrix
    hermitian: bool = False

    def __post_init__(self):
        if self.matrix.shape != (self.basis.dim, self.basis.dim):
            raise ValueError("matrix shape does not match basis dimension")
        if self.hermitian:
            delta = (self.matrix - self.matrix.getH()).tocoo()
            if delta.nnz and np.max(np.abs(delta.data)) > HERMITICITY_TOL:
                raise ValueError(
                    f"operator flagged Hermitian but is not ({HERMITICITY_TOL})")

    def apply(self, v):
        if v.basis != self.basis:
            raise SectorError("vector and operator bases differ")
        return FockVector(self.basis, self.matrix @ v.coeffs)

    def expectation(self, v):
        ev = complex(np.vdot(v.coeffs, self.matrix @ v.coeffs))
        return ev.real if self.hermitian else ev

    def to_dense(self):
        return self.matrix.toarray()


# ---------------------------------------------------------------------------
# ladder operators


def ladder_matrix(kind, p, basis):
    """Sparse matrix of a_p or a+_p; returns (matrix, output_basis).

    Matrix elements: <..., n_p - 1, ...| a_p |..., n_p, ...> = sqrt(n_p).
    On a truncated basis the creation operator drops amplitudes that would
    exceed n_max; on a fixed sector the output lives in the adjacent sector.
    """
    if not 0 <= p < basis.d:
        raise ValueError(f"mode index {p} out of range for d={basis.d}")
    return field_matrix(kind, np.eye(basis.d)[p], basis)


def ladder_apply(kind, p, v):
    """Apply a single-mode ladder operator to a vector."""
    mat, out = ladder_matrix(kind, p, v.basis)
    return FockVector(out, mat @ v.coeffs)


def field_matrix(kind, f, basis):
    """Matrix of a(f) = sum_p f_p a_p or a*(f) = sum_p f_p a+_p (linear in f).

    Each entry comes from one mode p: a pass over the nonzero f_p shifts column
    p, ranks the targets and writes f_p sqrt(.) into preallocated triplets."""
    if kind not in ("create", "annihilate"):
        raise ValueError(f"ladder kind must be create|annihilate, got {kind!r}")
    f = np.asarray(f, dtype=complex)
    if f.shape != (basis.d,):
        raise ValueError(f"smearing vector must have length d={basis.d}")
    step = 1 if kind == "create" else -1
    out = basis  # a truncated basis maps to itself, a fixed sector to the next
    if basis.sector[0] == "fixed":
        if basis.n_max + step < 0:
            raise SectorError("cannot annihilate on the fixed(0) sector")
        out = enumerate_basis(basis.d, fixed(basis.n_max + step))
    occs, modes = basis.occs, np.flatnonzero(f)
    fits = (basis.totals < basis.n_max) | (basis.sector[0] == "fixed")  # a* stays <= n_max
    keep = occs[:, modes] > 0 if step < 0 else np.repeat(fits[:, None], len(modes), 1)
    nnz = np.count_nonzero(keep)
    rows, cols = np.empty(nnz, np.int32), np.empty(nnz, np.int32)
    vals, stop = np.empty(nnz, complex), 0
    for c, p in enumerate(modes):
        src = np.flatnonzero(keep[:, c])
        sl = slice(stop, stop + len(src))
        stop = sl.stop
        tgt = occs[src]
        tgt[:, p] += step
        rows[sl], cols[sl] = rank(out, tgt), src
        # sqrt(n_p) or sqrt(n_p + 1); "+ 0" turns -0.0 parts into 0.0
        vals[sl] = f[p] * np.sqrt(np.maximum(tgt[:, p], tgt[:, p] - step)) + 0
    return sparse.csr_matrix((vals, (rows, cols)), shape=(out.dim, basis.dim)), out


def field_apply(kind, f, v):
    """Apply the smeared operator a(f) or a*(f) to a vector."""
    mat, out = field_matrix(kind, f, v.basis)
    return FockVector(out, mat @ v.coeffs)


# ---------------------------------------------------------------------------
# second quantization and the Hamiltonian


def second_quantize(A, basis):
    """dGamma(A) = sum_pq A_pq a+_p a_q on the given basis.

    dGamma(1) is the total number operator; any A commutes with N here since
    hopping conserves the total occupation.
    """
    A = np.asarray(A, dtype=complex)
    d = basis.d
    if A.shape != (d, d):
        raise ValueError(f"one-particle matrix must be {d}x{d}")
    hermitian = bool(np.max(np.abs(A - A.conj().T)) <= HERMITICITY_TOL)
    occs = basis.occs
    # mode by mode: a BLAS occs @ diag(A) may reorder the sum and move last bits
    diag = sum(A[q, q] * occs[:, q] for q in range(d))
    nz = np.flatnonzero(diag)
    rows, cols, vals = [nz], [nz], [diag[nz]]
    for p, q in zip(*np.nonzero(A)):
        if p == q:
            continue
        src = np.flatnonzero(occs[:, q] > 0)
        hop = occs[src]
        amps = np.sqrt(hop[:, q] * (hop[:, p] + 1.0))
        hop[:, q] -= 1
        hop[:, p] += 1
        rows.append(rank(basis, hop))
        cols.append(src)
        vals.append(A[p, q] * amps)
    mat = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(basis.dim, basis.dim),
        dtype=complex,
    )
    return SparseOperator(basis=basis, matrix=mat, hermitian=hermitian)


def number_operator(basis):
    """N = dGamma(1), diagonal in the occupation basis."""
    mat = sparse.diags(basis.totals.astype(complex)).tocsr()
    return SparseOperator(basis=basis, matrix=mat, hermitian=True)


def build_hamiltonian(ms: ModeSystem, n_scale, basis):
    """H = dGamma(h) + (1/2n) sum_pq v(p,q) a+_p a+_q a_q a_p.

    The interaction is diagonal in the occupation basis:
    a+_p a+_q a_q a_p |occ> = occ_p * occ_q |occ> for p != q and
    occ_p (occ_p - 1) |occ> for p == q.
    """
    if ms.d != basis.d:
        raise ValueError("mode system and basis disagree on d")
    if n_scale < 1:
        raise ValueError("n_scale must be >= 1")
    occ = basis.occs.astype(float)
    quad = np.einsum("ip,pq,iq->i", occ, ms.v, occ) - occ @ np.diag(ms.v)
    H = second_quantize(ms.h, basis).matrix + sparse.diags(quad / (2.0 * n_scale))
    return SparseOperator(basis=basis, matrix=H.tocsr(), hermitian=True)


# ---------------------------------------------------------------------------
# Weyl displacement


def weyl_headroom(alpha_norm):
    """Recommended n_max K = (|alpha| + 4)^2 for displacements of size |alpha|.

    The particle number of C(alpha)|0> is Poisson(|alpha|^2), so the mass a
    basis truncated at K drops is ``scipy.special.pdtrc(K, |alpha|^2)``.  It
    is at most ``POISSON_TAIL_FLOOR`` (1e-16) for |alpha|^2 <= 662, and above
    it from |alpha|^2 = 663 up (1.007e-16 there, 3.0e-16 at 5000, below 1e-15
    up to 1e8): ``coherent_state`` raises ``SectorError`` on such a basis.
    It sizes the bases where ``weyl_apply`` runs (``fluctuation_apply``, the
    Weyl-projection theta oracle, the invariant suite); coherent sweep cells
    use the smaller exact Poisson cutoff ``states._poisson_cutoff`` instead.
    """
    a = float(alpha_norm)
    return int(np.ceil(a * a + 8.0 * a + 16.0))


def _mode_factor(z, n_max):
    """Matrix of e^{z a+} on one mode occupied 0..n_max: the entry at
    (o + j, o) is z^j / j! sqrt((o + j)! / o!), the product of the j steps
    z sqrt(o + i) / i.  Its transpose is the matrix of e^{z a}."""
    r, c = np.indices((n_max + 1, n_max + 1))
    step = np.where(r > c, z * np.sqrt(r) / np.maximum(r - c, 1), 1.0)
    return np.tril(np.cumprod(step, axis=0))


def weyl_apply(alpha, v):
    """Apply the displacement C(alpha); returns (vector, truncation_loss).

    Requires a truncated basis (displacement does not conserve particle
    number).  The loss reported is 1 - ||C(alpha) v||^2 relative to a unit
    input, which equals the probability mass pushed above the truncation.
    """
    basis = v.basis
    if basis.sector[0] != "truncated":
        raise SectorError("Weyl displacement needs a truncated basis")
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape != (basis.d,):
        raise ValueError(f"alpha must have length d={basis.d}")
    d, n_max, occs = basis.d, basis.n_max, basis.occs
    a2 = float(np.vdot(alpha, alpha).real)
    if a2 == 0.0 or v.norm() == 0.0:
        return v.copy(), 0.0
    # states equal off mode p form one line, indexed by the rank of the
    # other occupations in the (d-1)-mode truncated basis
    modes = np.flatnonzero(alpha)
    lines = [rank(enumerate_basis(d - 1, basis.sector), np.delete(occs, p, axis=1))
             if d > 1 else 0 for p in modes]
    w = v.coeffs
    # annihilation factors first; grid cells above the truncation start at
    # zero and are dropped after each factor.  Near o + j = n_max the factors
    # grow like e^{|alpha_p| sqrt(n_max)}: past |alpha|^2 of about 750 they
    # overflow, and the check below turns that into an error.
    with np.errstate(over="ignore", invalid="ignore"):
        for create in (False, True):
            for p, line in zip(modes, lines):
                grid = np.zeros((comb(n_max + d - 1, d - 1), n_max + 1), complex)
                grid[line, occs[:, p]] = w
                f = (_mode_factor(alpha[p], n_max).T if create
                     else _mode_factor(-np.conj(alpha[p]), n_max))
                w = (grid @ f)[line, occs[:, p]]
        w = w * np.exp(-a2 / 2.0)
    if not np.all(np.isfinite(w)):
        raise SectorError(
            f"Weyl displacement overflows at |alpha|^2 = {a2:.4g} on n_max = {n_max}"
        )
    out = FockVector(basis, w)
    loss = 1.0 - (out.norm() ** 2) / (v.norm() ** 2)
    return out, max(loss, 0.0)


def sector_project(n, v):
    """P_n: zero every coefficient outside total occupation n."""
    basis = v.basis
    kind, cap = basis.sector
    if kind != "truncated":
        raise SectorError("sector projection is defined on truncated bases")
    if not 0 <= n <= cap:
        raise SectorError(f"sector {n} not contained in truncation n_max={cap}")
    c = np.zeros_like(v.coeffs)
    sl = basis.sector_slice(n)
    c[sl] = v.coeffs[sl]
    return FockVector(basis, c)


# ---------------------------------------------------------------------------
# debugging dumps (documented JSON layout: occupations as integer arrays,
# complex coefficients as [re, im] pairs)


def _c2pair(z):
    return [float(np.real(z)), float(np.imag(z))]


def dump_basis_json(basis, path=None):
    doc = {
        "d": basis.d,
        "sector": {"kind": basis.sector[0], "n": basis.sector[1]},
        "states": basis.occs.tolist(),
    }
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return doc


def dump_vector_json(v, path=None):
    doc = dump_basis_json(v.basis)
    doc = {"basis": doc, "coeffs": [_c2pair(z) for z in v.coeffs]}
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return doc


def dump_operator_json(op, path=None):
    coo = op.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    entries = [
        [int(coo.row[k]), int(coo.col[k]), _c2pair(coo.data[k])] for k in order
    ]
    doc = {
        "basis": dump_basis_json(op.basis),
        "hermitian": bool(op.hermitian),
        "entries": entries,
    }
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return doc
