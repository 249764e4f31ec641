"""Truncated symmetric Fock space over d modes.

Occupation-number (bosonic) representation: a basis state is a tuple
(n_0, ..., n_{d-1}) of mode occupations.  A basis is either a fixed
total-number sector or the full space truncated at a maximal total occupation.

Ordering convention (fixes all file formats): states are grouped by total
occupation (ascending) and, within each sector, enumerated in descending
lexicographic order, so for d=2, total=2 the order is (2,0), (1,1), (0,2).

Layout: fixed(n) on d modes is truncated(n) on modes 1..d-1, with column 0
set to n_0 = n - total, in the same order.  So a sector is described by the
number of trailing columns that vary freely (d - 1 for fixed(n), d for
truncated(n)) and the lowest total it holds (n or 0); dimensions, ranks,
slices and ladder targets read that layout, and only this module names the
sector kinds.

Index kernel: one closed form, the combinatorial number system, maps rows to
indices and back.  With the suffix totals s_i = n_i + ... + n_{d-1}, the
states before a row number sum_i C(s_i + d-i-1, d-i) over the free columns
i: on a truncated basis the i = 0 term counts the lower sectors.
Both directions read one cached table of C(s + k - 1, k): ``rank`` adds one
lookup per free column, walking from the last column, and ``unrank`` inverts
it with one binary search per free column; every basis is ``unrank`` of
0..dim-1.
Ladder and field operators act on coefficient vectors through these ranks,
one mode at a time, without assembling a matrix.

Smeared operators follow the linear-in-argument convention

    a(f)  = sum_p f_p a_p,      a*(f) = sum_p f_p a+_p,

so that [a(f), a*(g)] = sum_p f_p g_p with no complex conjugate, and the
adjoint of a*(f) is a(conj(f)).  The Weyl displacement is

    C(alpha) = exp(a*(alpha) - a(conj(alpha))) = prod_p C(alpha_p),

a product of commuting one-mode displacements.  Each one-mode block comes
from the spectral form of X = a + a+ on a box of levels above the
truncation, cached per box size, and has every entry bounded by 1, so at
any |alpha| a displacement and its undoing err by rounding plus the
amplitude the truncation drops.  ``weyl_apply`` takes one of two routes to
the projection of the untruncated image, whichever needs fewer
multiply-adds.  A wide input is displaced one mode at a time, each pass
keeping the states whose displaced modes alone hold at most n_max, since
no later pass lowers their occupation; the basis entries are gathered at
the end.  An input on few basis states
(a vacuum, the sector of a theta state) is displaced in closed form,
w(o) = sum_s v_s prod_p <o_p| C(alpha_p) |k_sp>, from the one-mode columns
that its occupations k_sp select.  Either way 1 - ||C(alpha) v||^2 is the
exact truncation loss.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb
import csv
import json
import operator

import numpy as np
import scipy.sparse as sparse

from .errors import SectorError
from .tolerances import HERMITICITY_TOL, check_capacity, check_hermitian


def _integer(x, what):
    """``x`` as an int: Python and numpy integers pass, anything else (a
    float such as 2.7 or 2.0 included) raises ValueError."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {x!r}") from None


def _sector(kind, n):
    """The sector spec (kind, n), n an integer >= 0."""
    n = _integer(n, f"{kind} sector size")
    if n < 0:
        raise ValueError(f"{kind} sector needs n >= 0, got {n}")
    return kind, n


def fixed(n):
    """Sector spec: all occupation tuples with total exactly n."""
    return _sector("fixed", n)


def truncated(n_max):
    """Sector spec: all occupation tuples with total <= n_max."""
    return _sector("truncated", n_max)


def _layout(d, sector):
    """(free, lowest) of a sector on d modes: the number of trailing columns
    that vary freely, with totals up to n, and the lowest total the sector
    holds.  fixed(n) is truncated(n) on modes 1..d-1 with column 0 = n - total."""
    kind, n = sector
    if kind == "fixed":
        return d - 1, n
    if kind == "truncated":
        return d, 0
    raise ValueError(f"unknown sector kind {kind!r}")


def _is_truncated(basis):
    """True on a truncated basis, whose column 0 varies freely; False on a
    fixed sector, where it is n - total."""
    return _layout(basis.d, basis.sector)[0] == basis.d


def _require_truncated(basis, what):
    """SectorError unless ``basis`` is truncated; ``what`` names the operation."""
    if not _is_truncated(basis):
        raise SectorError(f"{what} needs a truncated basis")


def sector_dimension(d, sector):
    """C(n + free, free): the sector's free columns hold any total up to n."""
    free, _ = _layout(d, sector)
    return comb(sector[1] + free, free)


@lru_cache(maxsize=32)
def _binomials(n_max, d):
    """Read-only (d, n_max + 1) int64 table: row k - 1 holds C(s + k - 1, k),
    the number of k-mode occupations with total below s, for s = 0..n_max.
    Row 0 is s itself and each next row the running sum of the one before,
    C(s + k, k + 1) = sum_{j < s} C(j + k, k) (the hockey-stick identity)."""
    table = np.zeros((d, n_max + 1), np.int64)
    table[0] = np.arange(n_max + 1)
    for k in range(1, d):
        np.cumsum(table[k - 1, 1:], out=table[k, 1:])
    if table[-1, -1] != comb(n_max + d - 1, d):  # int64 wrapped around
        raise OverflowError(f"C({n_max + d - 1}, {d}) does not fit in int64")
    table.flags.writeable = False
    return table


def rank(basis, occs):
    """Index in ``basis`` of every row of the (m, d) occupation array ``occs``.

    Walks the free columns from the last one, adding C(s_i + d-i-1, d-i) for
    each suffix total s_i (see the module docstring); column 0 is free only
    on a truncated basis.  Rows must lie in the basis; ``FockBasis.index_of``
    is the checked single-state form.
    """
    d = basis.d
    free, _ = _layout(d, basis.sector)
    table = _binomials(basis.n_max, d)
    s = np.zeros(len(occs), np.int64)
    idx = np.zeros(len(occs), np.int64)
    for i in range(d - 1, d - 1 - free, -1):
        s += occs[:, i]
        idx += table[d - i - 1].take(s)
    return idx


def unrank(d, sector, idx):
    """(m, d) occupation rows of the basis indices ``idx``, the inverse of
    ``rank``: free column by free column, s_i is the largest suffix total
    whose count C(s_i + d-i-1, d-i) does not exceed what is left of the
    index; a column that is not free takes s_0 = n."""
    free, _ = _layout(d, sector)
    n = sector[1]
    table = _binomials(n, d)
    left = np.asarray(idx, dtype=np.int64)
    suffix = np.zeros((len(left), d + 1), np.int64)  # s_0, ..., s_{d-1}, s_d = 0
    suffix[:, 0] = n
    for i in range(d - free, d):
        row = table[d - i - 1]
        s = suffix[:, i] = row.searchsorted(left, side="right") - 1
        left = left - row.take(s)
    return suffix[:, :-1] - suffix[:, 1:]


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Occupation-number basis; indices follow from ``rank``."""

    sector: tuple
    occs: np.ndarray          # (dim, d) int array, row i = occupation tuple i

    @property
    def d(self):
        return self.occs.shape[1]

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
        row = np.asarray(occ)
        _, lowest = _layout(self.d, self.sector)
        if (row.dtype.kind not in "iu" or row.shape != (self.d,) or row.min() < 0
                or not lowest <= row.sum() <= self.n_max):
            raise KeyError(tuple(occ))
        return int(rank(self, row.astype(np.int64)[None, :])[0])

    def sector_slice(self, m):
        """Contiguous slice of the states with total occupation m: the
        C(m + d-1, d-1) states after the rank of (m, 0, ..., 0), which is
        C(m + d-1, d) when column 0 is free and 0 otherwise.  SectorError
        for a total the basis does not hold."""
        free, lowest = _layout(self.d, self.sector)
        if not lowest <= m <= self.n_max:
            raise SectorError(f"sector {m} outside the basis {self.sector}")
        start = comb(m + self.d - 1, self.d) if free == self.d else 0
        return slice(start, start + comb(m + self.d - 1, self.d - 1))


@lru_cache(maxsize=256)
def _enumerate_cached(d, sector):
    dim = check_capacity(sector_dimension(d, sector), f"basis (d={d}, sector={sector})")
    return FockBasis(sector=sector, occs=unrank(d, sector, np.arange(dim)))


def enumerate_basis(d, sector):
    """Build (or fetch the cached) occupation basis for the given sector."""
    d = _integer(d, "mode count")
    if d < 1:
        raise ValueError("need d >= 1 modes")
    _layout(d, sector)  # ValueError for an unknown kind
    return _enumerate_cached(d, _sector(*sector))


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


def _embed_sector(coeffs, n, basis):
    """Coefficients of total n placed on ``basis``; SectorError if it lacks n."""
    c = np.zeros(basis.dim, dtype=complex)
    c[basis.sector_slice(n)] = coeffs
    return FockVector(basis, c)


def vacuum(basis):
    """The vacuum; SectorError on a basis without total 0."""
    return _embed_sector(1.0, 0, basis)


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
            check_hermitian(self.matrix, "operator")

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


def _unit_mode(p, d):
    p = _integer(p, "mode index")
    if not 0 <= p < d:
        raise ValueError(f"mode index {p} out of range for d={d}")
    return np.eye(d)[p]


def ladder_matrix(kind, p, basis):
    """Sparse matrix of a_p or a+_p; returns (matrix, output_basis).

    Matrix elements: <..., n_p - 1, ...| a_p |..., n_p, ...> = sqrt(n_p).
    On a truncated basis the creation operator drops amplitudes that would
    exceed n_max; on a fixed sector the output lives in the adjacent sector.
    """
    return field_matrix(kind, _unit_mode(p, basis.d), basis)


def ladder_apply(kind, p, v):
    """Apply a single-mode ladder operator to a vector."""
    return field_apply(kind, _unit_mode(p, v.basis.d), v)


def _mode_vector(x, d, what):
    """``x`` as a complex array; ValueError unless it has length d and finite
    entries."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (d,):
        raise ValueError(f"{what} must have length d={d}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} must be finite, got {x}")
    return x


def _smearing(kind, f, basis):
    if kind not in ("create", "annihilate"):
        raise ValueError(f"ladder kind must be create|annihilate, got {kind!r}")
    return _mode_vector(f, basis.d, "smearing vector f")


def _ladder_target(basis, step):
    """The basis a(f) (step -1) or a*(f) (step +1) maps into: a truncated
    basis itself (a*(f) drops what would leave its top sector), or the
    sector of total n + step for a fixed sector of total n."""
    if _is_truncated(basis):
        return basis
    if basis.n_max + step < 0:
        raise SectorError(f"cannot annihilate on the sector {basis.sector}")
    return enumerate_basis(basis.d, (basis.sector[0], basis.n_max + step))


def _lowerings(f, basis, out):
    """For each mode p with f_p != 0: the states ``src`` of ``basis`` with
    o_p > 0, the ranks ``tgt`` of o - e_p in ``out`` and sqrt(o_p), so that
    a_p sends sqrt(o_p) v(src) to tgt."""
    occs = basis.occs
    for p in np.flatnonzero(f):
        src = np.flatnonzero(occs[:, p])
        lowered = occs[src]
        lowered[:, p] -= 1
        yield p, src, rank(out, lowered), np.sqrt(occs[src, p])


def field_matrix(kind, f, basis):
    """Matrix of a(f) = sum_p f_p a_p or a*(f) = sum_p f_p a+_p (linear in f).

    a(f) holds f_p sqrt(o_p) at (rank of o - e_p, o) for every nonzero f_p.
    a*(f) is the transpose (not the adjoint) of a(f) on the raised basis,
    fixed(n + 1) for fixed(n) or the truncated basis itself, whose top
    sector has no image: what a*(f) would push above n_max is dropped."""
    f = _smearing(kind, f, basis)
    if kind == "create":
        raised = _ladder_target(basis, 1)
        return field_matrix("annihilate", f, raised)[0].T.tocsr(), raised
    out = _ladder_target(basis, -1)
    rows, cols, vals = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0, complex)]
    for p, src, tgt, amp in _lowerings(f, basis, out):
        rows.append(tgt)
        cols.append(src)
        vals.append(f[p] * amp + 0)  # "+ 0" turns -0.0 parts into 0.0
    mat = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(out.dim, basis.dim),
    )
    return mat, out


def field_apply(kind, f, v):
    """Apply the smeared operator a(f) or a*(f) to a vector, mode by mode on
    the coefficients and without a matrix: a(f) scatters f_p sqrt(o_p) v(o)
    onto o - e_p; a*(f), its transpose, gathers f_p sqrt(o_p) v(o - e_p) at
    each state o of the raised basis."""
    f = _smearing(kind, f, v.basis)
    if kind == "annihilate":
        out = _ladder_target(v.basis, -1)
        w = np.zeros(out.dim, complex)
        for p, src, tgt, amp in _lowerings(f, v.basis, out):
            w[tgt] += f[p] * amp * v.coeffs[src]
    else:
        out = _ladder_target(v.basis, 1)
        w = np.zeros(out.dim, complex)
        for p, src, tgt, amp in _lowerings(f, out, v.basis):
            w[src] += f[p] * amp * v.coeffs[tgt]
    return FockVector(out, w)


# ---------------------------------------------------------------------------
# second quantization and the Hamiltonian


def second_quantize(A, basis):
    """dGamma(A) = sum_pq A_pq a+_p a_q on the given basis.

    dGamma(1) is the total number operator; any A commutes with N here since
    hopping conserves the total occupation.  An A Hermitian to HERMITICITY_TOL
    is assembled as its exact Hermitian part, as ``ModeSystem`` stores h.
    """
    A = np.asarray(A, dtype=complex)
    if A.shape != (basis.d, basis.d):
        raise ValueError(f"one-particle matrix must be {basis.d}x{basis.d}")
    hermitian = bool(np.max(np.abs(A - A.conj().T)) <= HERMITICITY_TOL)
    if hermitian:
        A = A / 2.0 + A.conj().T / 2.0
    return SparseOperator(basis=basis, matrix=_dgamma(A, basis), hermitian=hermitian)


def _dgamma(A, basis, diagonal=0.0):
    """The CSR matrix of ``second_quantize`` for a complex d x d ``A``, plus
    the real ``diagonal`` (one entry per state), in one COO-to-CSR assembly."""
    d = basis.d
    occs = basis.occs
    # mode by mode: a BLAS occs @ diag(A) may reorder the sum and move last bits
    diag = sum(A[q, q] * occs[:, q] for q in range(d)) + diagonal
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
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(basis.dim, basis.dim),
        dtype=complex,
    )


def number_operator(basis):
    """N = dGamma(1), diagonal in the occupation basis."""
    mat = sparse.diags(basis.totals.astype(complex)).tocsr()
    return SparseOperator(basis=basis, matrix=mat, hermitian=True)


def build_hamiltonian(ms, n_scale, basis):
    """H = dGamma(h) + (1/2n) sum_pq v(p,q) a+_p a+_q a_q a_p, with h and v
    those of the ModeSystem ``ms`` and n = ``n_scale``.

    The interaction is diagonal in the occupation basis:
    a+_p a+_q a_q a_p |occ> = occ_p * occ_q |occ> for p != q and
    occ_p (occ_p - 1) |occ> for p == q.
    """
    if ms.d != basis.d:
        raise ValueError("mode system and basis disagree on d")
    if not n_scale >= 1:
        raise ValueError("n_scale must be >= 1")
    occ = basis.occs.astype(float)
    quad = np.einsum("ip,pq,iq->i", occ, ms.v, occ) - occ @ np.diag(ms.v)
    # the Hermiticity pledge is checked once, on H itself
    return SparseOperator(basis=basis, matrix=_dgamma(ms.h, basis, quad / (2.0 * n_scale)),
                          hermitian=True)


# ---------------------------------------------------------------------------
# Weyl displacement


def weyl_headroom(alpha_norm):
    """Recommended n_max K = (|alpha| + 4)^2 for displacements of size |alpha|.

    The particle number of C(alpha)|0> is Poisson(|alpha|^2), so the mass a
    basis truncated at K drops is ``states._poisson_tail(K, |alpha|^2)``.  It
    is at most ``POISSON_TAIL_FLOOR`` (1e-16) for |alpha|^2 <= 662, and above
    it from |alpha|^2 = 663 up (1.007e-16 there, 3.0e-16 at 5000, below 1e-15
    up to 1e8): ``coherent_state`` raises ``SectorError`` on such a basis.
    It sizes the bases of ``fluctuation_apply`` and of the invariant suite.
    The Weyl-projection theta oracle, which reads one sector of the
    projection, displaces on truncated(n), and coherent sweep cells use the
    smaller exact Poisson cutoff ``states._poisson_cutoff``.
    """
    a = float(alpha_norm)
    k = a * a + 8.0 * a + 16.0
    if not (a >= 0.0 and k < np.inf):
        raise ValueError(
            f"alpha_norm must be finite and >= 0 with (|alpha| + 4)^2 finite, got {alpha_norm!r}")
    return int(np.ceil(k))


@lru_cache(maxsize=4)
def _spectrum(levels, rows):
    """Eigenvalues of the tridiagonal X = a + a+ on ``levels`` levels of one
    mode, and rows 0..rows-1 of its eigenvectors: only those are kept."""
    from scipy.linalg import eigh_tridiagonal

    lam, vec = eigh_tridiagonal(np.zeros(levels), np.sqrt(np.arange(1.0, levels)))
    return lam, np.asfortranarray(vec[:rows])  # LAPACK order, for the same bits


def _displacement(z, n_max, cols):
    """Rows 0..n_max and columns ``cols`` of the one-mode displacement C(z).

    With X = a + a+ = V diag(lam) V^T on a box of N levels and c = -i z / |z|,
    <j| C(z) |k> = c^j conj(c)^k sum_i V[j, i] V[k, i] e^{i |z| lam_i}, so no
    entry exceeds 1.  The box edge reflects what reaches it, so the box holds
    the image of the highest column with one unit of |z| more than the
    Poisson headroom, N >= weyl_headroom(sqrt(max(cols)) + |z| + 1): without
    that unit, rows near n_max of a vacuum column err by up to 2e-9.  N, and
    the n_max + 1 rows of V that are read (cols <= n_max), are rounded up to
    multiples of 64 so that few keys are eigensolved and cached."""
    if z == 0:
        return np.eye(n_max + 1)[:, cols]
    r = abs(z)
    need = max(n_max + 1, weyl_headroom(np.sqrt(cols.max()) + r + 1.0))
    lam, vec = _spectrum(-(-need // 64) * 64, -(-(n_max + 1) // 64) * 64)
    left, right = vec[: n_max + 1], vec[cols].T
    block = (left * np.cos(r * lam)) @ right + 1j * ((left * np.sin(r * lam)) @ right)
    c = np.exp(1j * (np.angle(z) - np.pi / 2) * np.arange(n_max + 1))
    return c[:, None] * block * np.conj(c[cols])


def _displace_support(alpha, v, support):
    """C(alpha) v for v supported on the states ``support``, in closed form:
    w(o) = sum_s v_s prod_p U_p[o_p, k_sp], where U_p[:, k] is the k-th
    column of the one-mode displacement, formed once for each occupation
    k_sp that occurs.  Modes 1..d-1 multiply out on the lines of mode 0 (the
    states of the other modes, ranked in their (d-1)-mode basis) into a
    (lines, s) matrix, and mode 0 is one product with it."""
    basis = v.basis
    cols = []
    for z, k in zip(alpha, basis.occs[support].T):
        distinct, at = np.unique(k, return_inverse=True)
        cols.append(_displacement(z, basis.n_max, distinct)[:, at])
    m = v.coeffs[support]
    if basis.d == 1:
        return m @ cols[0].T
    rest = enumerate_basis(basis.d - 1, basis.sector)
    for u, o in zip(cols[1:], rest.occs.T):
        m = m * u[o]
    return (m @ cols[0].T)[rank(rest, basis.occs[:, 1:]), basis.occs[:, 0]]


def _displace_grid(alpha, v):
    """C(alpha) v one displaced mode at a time, exactly.  Once a mode has been
    displaced its occupation no longer changes, and the final gather keeps
    only totals <= n_max; so the intermediate x[i, r] pairs a state i of the
    modes displaced so far (the newest first) with a state r of the others,
    each of total <= n_max and ranked in its own truncated basis, and drops
    nothing the result keeps.  Of the k others, the state (q, r'), q the
    next mode's occupation, sits at column C(q + |r'| + k - 1, k) + rank(r');
    the displaced modes' states (t, i) come out in basis order, by total
    t + |i| and then by i.  A pass gathers, for a slice of the states r', the
    columns for q = 0..n_max - |r'| (past n_max, x's last column, which stays
    zero) and multiplies them by the one-mode block; a slice holds about as
    many entries as the basis.  The largest x must fit in the state cap
    (``tolerances.check_capacity``)."""
    basis, n = v.basis, v.basis.n_max
    moved, kept = np.flatnonzero(alpha), np.flatnonzero(alpha == 0)
    check_capacity(max(comb(n + j, j) * comb(n + basis.d - j, basis.d - j)
                       for j in range(len(moved) + 1)), "Weyl grid")
    table, occ, totals = _binomials(n, basis.d), np.arange(n + 1), np.zeros(1, np.int64)
    x = np.zeros((1, basis.dim + 1), complex)
    x[0, rank(basis, basis.occs[:, np.concatenate([moved, kept])])] = v.coeffs
    for j, p in enumerate(moved):
        block, k = np.ascontiguousarray(_displacement(alpha[p], n, occ).T), basis.d - j
        s, i = np.nonzero(occ[:, None] >= totals)
        ends = np.diff(table[k - 1], append=comb(n + k, k))
        rest = np.repeat(occ, np.diff(ends, prepend=0))
        y = np.zeros((len(s), len(rest) + 1), complex)
        step = max(1, basis.dim // ((n + 1) * len(x)))
        for lo in range(0, len(rest), step):
            tot = rest[lo : lo + step, None] + occ[: n + 1 - rest[lo]]  # q + |r'|
            cols = table[k - 1].take(tot, mode="clip") + np.arange(lo, lo + len(tot))[:, None]
            g = x.take(np.where(tot > n, -1, cols), axis=1).reshape(-1, tot.shape[1])
            z = (g @ block[: tot.shape[1]]).reshape(len(x), len(tot), n + 1)
            y[:, lo : lo + len(tot)] = z[i, :, s - totals[i]]
        x, totals = y, s
    i = rank(enumerate_basis(len(moved), basis.sector), basis.occs[:, moved[::-1]])
    r = rank(enumerate_basis(len(kept), basis.sector), basis.occs[:, kept]) if len(kept) else 0
    return x[i, r]


def weyl_apply(alpha, v):
    """Apply the displacement C(alpha); returns (vector, truncation_loss).

    Requires a truncated basis (displacement does not conserve particle
    number).  The loss reported is 1 - ||C(alpha) v||^2 relative to a unit
    input, which equals the probability mass pushed above the truncation.

    C(alpha) is the product over the modes of the one-mode displacements
    C(alpha_p), each taken from the spectral form of ``_displacement``, whose
    entries are bounded by 1; undoing a displacement is therefore accurate
    to rounding plus what the truncation dropped.  Two routes give the same
    projection of the untruncated image.  An input on s basis states is
    displaced in closed form, as one contraction of the one-mode columns
    that its occupations select (see ``_displace_support``); a wide input by
    one pass of the one-mode block per displaced mode (``_displace_grid``).
    The route is the one with fewer multiply-adds, counted with the box N of
    ``_displacement`` taken as n_max + 1 and divided by n_max + 1: the
    closed form takes about s lines + (n_max + 1) sum_p u_p, with
    lines = C(n_max + d - 1, d - 1) the states of d - 1 modes and u_p the
    distinct occupations of displaced mode p on the support; the grid
    (n_max + 1)^2 per displaced mode plus C(n_max + j, j) C(n_max + d - j,
    d - j) for its pass after j others.  So a basis state, a vacuum or a
    theta state's sector takes the closed form, and a displaced state, which
    fills the basis, takes the grid.  The grid raises ``CapacityError``
    when a pass would hold more entries than the state cap.
    """
    basis = v.basis
    _require_truncated(basis, "Weyl displacement")
    alpha = _mode_vector(alpha, basis.d, "displacement alpha")
    d, n, m = basis.d, basis.n_max, np.count_nonzero(alpha)
    if m == 0 or v.norm() == 0.0:
        return v.copy(), 0.0
    support = np.flatnonzero(v.coeffs)
    few = len(support) * comb(n + d - 1, d - 1) + (n + 1) * sum(
        len(np.unique(k)) for k in basis.occs[support][:, alpha != 0].T)
    many = sum((n + 1) ** 2 + comb(n + j, j) * comb(n + d - j, d - j) for j in range(m))
    w = _displace_support(alpha, v, support) if few < many else _displace_grid(alpha, v)
    out = FockVector(basis, w)
    loss = 1.0 - (out.norm() ** 2) / (v.norm() ** 2)
    return out, max(loss, 0.0)


def sector_project(n, v):
    """P_n: zero every coefficient outside total occupation n."""
    basis = v.basis
    _require_truncated(basis, "sector projection")
    return _embed_sector(v.coeffs[basis.sector_slice(n)], n, basis)


# ---------------------------------------------------------------------------
# debugging dumps (documented JSON layout: occupations as integer arrays,
# complex coefficients as [re, im] pairs)


def _written(doc, path, indent=None):
    """``doc``, also written to ``path`` as JSON unless path is None; the one
    place that writes a JSON file."""
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=indent)
    return doc


def _written_csv(path, header, rows):
    """Write ``header`` and ``rows`` to ``path`` as CSV, UTF-8 with LF line
    endings: an int as ``str``, any other number as ``repr(float(x))`` (the
    shortest round-trip decimal), None as a blank cell; the one place that
    writes a CSV file."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")  # it writes None blank, an int with str
        w.writerow(header)
        w.writerows([x if x is None or isinstance(x, (int, np.integer)) else repr(float(x))
                     for x in row] for row in rows)


def _c2pair(z):
    return [float(np.real(z)), float(np.imag(z))]


def dump_basis_json(basis, path=None):
    doc = {
        "d": basis.d,
        "sector": {"kind": basis.sector[0], "n": basis.sector[1]},
        "states": basis.occs.tolist(),
    }
    return _written(doc, path)


def dump_vector_json(v, path=None):
    doc = {"basis": dump_basis_json(v.basis), "coeffs": [_c2pair(z) for z in v.coeffs]}
    return _written(doc, path)


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
    return _written(doc, path)
