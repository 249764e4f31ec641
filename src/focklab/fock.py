"""Truncated symmetric Fock space over d modes.

Occupation-number (bosonic) representation: a basis state is a tuple
(n_0, ..., n_{d-1}) of mode occupations.  A basis is either a fixed
total-number sector or the full space truncated at a maximal total occupation.

Ordering convention (fixes all file formats): states are grouped by total
occupation (ascending) and, within each sector, enumerated in descending
lexicographic order, so for d=2, total=2 the order is (2,0), (1,1), (0,2).

Index kernel: one closed form, the combinatorial number system, maps rows to
indices and back.  With the suffix totals s_i = n_i + ... + n_{d-1}, the
states before a row within its sector number sum_{i=1}^{d-1} C(s_i + d-i-1,
d-i), and on a truncated basis the lower sectors add C(s_0 + d-1, d) more.
Both directions read one cached table of C(s + k - 1, k): ``rank`` adds one
lookup per column, walking from the last column, and ``unrank`` inverts it
with one binary search per column; every basis is ``unrank`` of 0..dim-1.
Ladder and field operators act on coefficient vectors through these ranks,
one mode at a time, without assembling a matrix.

Smeared operators follow the linear-in-argument convention

    a(f)  = sum_p f_p a_p,      a*(f) = sum_p f_p a+_p,

so that [a(f), a*(g)] = sum_p f_p g_p with no complex conjugate, and the
adjoint of a*(f) is a(conj(f)).  The Weyl displacement is

    C(alpha) = exp(a*(alpha) - a(conj(alpha)))
             = exp(-|alpha|^2/2) exp(a*(alpha)) exp(-a(conj(alpha))),

and, since the modes commute, the product over p of the one-mode factors
exp(-conj(alpha_p) a_p) (all applied first) and exp(alpha_p a+_p).  Each is
one closed-form triangular (n_max + 1)^2 matrix.  ``weyl_apply`` takes one
of two routes to the projection of the untruncated image, whichever needs
fewer multiply-adds.  A wide input is displaced factor by factor on the
lines of states that differ only in mode p: annihilation stays inside the
truncated basis and creation only raises, so dropping what leaves the basis
after each factor is exact.  An input on few basis states (a vacuum, the
sector of a theta state) is displaced in closed form,
w(o) = sum_s v_s prod_p <o_p| C(alpha_p) |k_sp>, from the columns of the
one-mode displacements that its occupations k_sp select.
Either way 1 - ||C(alpha) v||^2 is the exact truncation loss.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb
import json
import operator

import numpy as np
import scipy.sparse as sparse

from .errors import CapacityError, SectorError
from .modes import ModeSystem
from .tolerances import HERMITICITY_TOL

DEFAULT_STATE_CAP = 5_000_000


def _integer(x, what):
    """``x`` as an int: Python and numpy integers pass, anything else (a
    float such as 2.7 or 2.0 included) raises ValueError."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {x!r}") from None


def fixed(n):
    """Sector spec: all occupation tuples with total exactly n."""
    n = _integer(n, "sector size")
    if n < 0:
        raise ValueError("fixed sector needs n >= 0")
    return ("fixed", n)


def truncated(n_max):
    """Sector spec: all occupation tuples with total <= n_max."""
    n_max = _integer(n_max, "truncation n_max")
    if n_max < 0:
        raise ValueError("truncated sector needs n_max >= 0")
    return ("truncated", n_max)


def sector_dimension(d, sector):
    kind, n = sector
    if kind == "fixed":
        return comb(n + d - 1, d - 1)
    if kind == "truncated":
        return comb(n + d, d)
    raise ValueError(f"unknown sector kind {kind!r}")


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

    Walks the columns from the last one, adding C(s_i + d-i-1, d-i) for each
    suffix total s_i (see the module docstring); column 0 counts only on a
    truncated basis.  Rows must lie in the basis; ``FockBasis.index_of`` is
    the checked single-state form.
    """
    d = basis.d
    table = _binomials(basis.n_max, d)
    s = np.zeros(len(occs), np.int64)
    idx = np.zeros(len(occs), np.int64)
    for i in range(d - 1, -1 if basis.sector[0] == "truncated" else 0, -1):
        s += occs[:, i]
        idx += table[d - i - 1].take(s)
    return idx


def unrank(d, sector, idx):
    """(m, d) occupation rows of the basis indices ``idx``, the inverse of
    ``rank``: column by column, s_i is the largest suffix total whose count
    C(s_i + d-i-1, d-i) does not exceed what is left of the index."""
    kind, n = sector
    table = _binomials(n, d)
    left = np.asarray(idx, dtype=np.int64)
    suffix = np.zeros((len(left), d + 1), np.int64)  # s_0, ..., s_{d-1}, s_d = 0
    suffix[:, 0] = n
    for i in range(0 if kind == "truncated" else 1, d):
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
        kind, n = self.sector
        if (row.dtype.kind not in "iu" or row.shape != (self.d,) or row.min() < 0
                or row.sum() > n or (kind == "fixed" and row.sum() != n)):
            raise KeyError(tuple(occ))
        return int(rank(self, row.astype(np.int64)[None, :])[0])

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
def _enumerate_cached(d, sector):
    dim = sector_dimension(d, sector)
    if dim > DEFAULT_STATE_CAP:
        raise CapacityError(
            f"basis (d={d}, sector={sector}) has {dim} states, cap is {DEFAULT_STATE_CAP}"
        )
    return FockBasis(sector=sector, occs=unrank(d, sector, np.arange(dim)))


def enumerate_basis(d, sector):
    """Build (or fetch the cached) occupation basis for the given sector."""
    d = _integer(d, "mode count")
    if d < 1:
        raise ValueError("need d >= 1 modes")
    kind, n = sector
    if kind not in ("fixed", "truncated"):
        raise ValueError(f"unknown sector kind {kind!r}")
    n = _integer(n, "sector size")
    if n < 0:
        raise ValueError("sector size must be >= 0")
    return _enumerate_cached(d, (kind, n))


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
    if basis.sector[0] == "fixed" and basis.n_max != 0:
        raise SectorError("vacuum lives in sector 0")
    return basis_state(basis, (0,) * basis.d)


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
            if delta.nnz and not np.max(np.abs(delta.data)) <= HERMITICITY_TOL:
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


def _unit_mode(p, d):
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


def _smearing(kind, f, basis):
    if kind not in ("create", "annihilate"):
        raise ValueError(f"ladder kind must be create|annihilate, got {kind!r}")
    f = np.asarray(f, dtype=complex)
    if f.shape != (basis.d,):
        raise ValueError(f"smearing vector must have length d={basis.d}")
    if not np.all(np.isfinite(f)):
        raise ValueError(f"smearing vector f must be finite, got {f}")
    return f


def _lowered(basis):
    """The basis a(f) maps into: fixed(n - 1) for fixed(n), or a truncated
    basis itself (its top sector lowers into sector n_max - 1)."""
    if basis.sector[0] == "truncated":
        return basis
    if basis.n_max == 0:
        raise SectorError("cannot annihilate on the fixed(0) sector")
    return enumerate_basis(basis.d, fixed(basis.n_max - 1))


def _raised(basis):
    """The basis a*(f) maps into: fixed(n + 1) for fixed(n), or a truncated
    basis itself (what would leave its top sector is dropped)."""
    if basis.sector[0] == "truncated":
        return basis
    return enumerate_basis(basis.d, fixed(basis.n_max + 1))


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
        raised = _raised(basis)
        return field_matrix("annihilate", f, raised)[0].T.tocsr(), raised
    out = _lowered(basis)
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
        out = _lowered(v.basis)
        w = np.zeros(out.dim, complex)
        for p, src, tgt, amp in _lowerings(f, v.basis, out):
            w[tgt] += f[p] * amp * v.coeffs[src]
    else:
        out = _raised(v.basis)
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


def _dgamma(A, basis):
    """The CSR matrix of ``second_quantize`` for a complex d x d ``A``."""
    d = basis.d
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
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(basis.dim, basis.dim),
        dtype=complex,
    )


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
    # the Hermiticity pledge is checked once, on H itself
    H = _dgamma(ms.h, basis) + sparse.diags(quad / (2.0 * n_scale))
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
    k = a * a + 8.0 * a + 16.0
    if not (a >= 0.0 and k < np.inf):
        raise ValueError(
            f"alpha_norm must be finite and >= 0 with (|alpha| + 4)^2 finite, got {alpha_norm!r}")
    return int(np.ceil(k))


def _mode_factor(z, n_max, cols=None):
    """Matrix of e^{z a+} on one mode occupied 0..n_max, or its first ``cols``
    columns: the entry at (o + j, o) is z^j / j! sqrt((o + j)! / o!), the
    product of the j steps z sqrt(o + i) / i.  Its transpose is the matrix
    of e^{z a}."""
    r = np.arange(n_max + 1)[:, None]
    c = np.arange(n_max + 1 if cols is None else cols)
    step = np.where(r > c, z * np.sqrt(r) / np.maximum(r - c, 1), 1.0)
    return np.where(r >= c, np.cumprod(step, axis=0), 0.0)


def _lines(basis, p):
    """States equal off mode p form one line, indexed by the rank of the other
    occupations in the (d-1)-mode truncated basis; a state sits at cell
    (line, o_p) of a row-major (lines, n_max + 1) grid."""
    if basis.d == 1:
        return 0
    others = basis.occs[:, np.arange(basis.d) != p]
    return rank(enumerate_basis(basis.d - 1, basis.sector), others)


def _displace_support(alpha, v, support):
    """C(alpha) v for v supported on the states ``support``, in closed form:
    w(o) = sum_s v_s prod_p U_p[o_p, k_sp], where U_p[:, k], the k-th column
    of the one-mode displacement, is e^{-|alpha_p|^2/2} sum_i F_c[:, i] F_a[k, i]
    with F_c the matrix of e^{alpha_p a+} and F_a that of e^{-conj(alpha_p) a+}.
    Only the columns k_sp are formed, from the first K = max_s k_sp + 1
    columns of F_c and the leading K x K block of F_a, so the annihilation
    entries, which grow down each column, stop at row K - 1.  Modes 1..d-1
    multiply out on the lines of mode 0 into a (lines, s) matrix, and mode 0
    is one product with it."""
    basis = v.basis
    n_max, ks = basis.n_max, basis.occs[support]
    cols = []
    for p, k in enumerate(ks.T):
        top = int(k.max()) + 1
        f_c = _mode_factor(alpha[p], n_max, top)
        f_a = _mode_factor(-np.conj(alpha[p]), top - 1)
        cols.append(np.exp(-abs(alpha[p]) ** 2 / 2.0) * (f_c @ f_a[k].T))
    m = v.coeffs[support]
    if basis.d > 1:
        for u, o in zip(cols[1:], enumerate_basis(basis.d - 1, basis.sector).occs.T):
            m = m * u[o]
    return (m @ cols[0].T).take((n_max + 1) * _lines(basis, 0) + basis.occs[:, 0])


def _displace_grid(alpha, v):
    """C(alpha) v by the normal-ordered factors, one mode at a time on the
    (lines, n_max + 1) grid of that mode: every annihilation factor first,
    then every creation factor.  Grid cells above the truncation start at
    zero and are dropped after each factor."""
    basis = v.basis
    d, n_max, width = basis.d, basis.n_max, basis.n_max + 1
    modes = np.flatnonzero(alpha)
    cells = [width * _lines(basis, p) + basis.occs[:, p] for p in modes]
    w = v.coeffs
    for create in (False, True):
        for p, cell in zip(modes, cells):
            grid = np.zeros(comb(n_max + d - 1, d - 1) * width, complex)
            grid[cell] = w
            f = (_mode_factor(alpha[p], n_max).T if create
                 else _mode_factor(-np.conj(alpha[p]), n_max))
            w = (grid.reshape(-1, width) @ f).take(cell)
    return w * np.exp(-float(np.vdot(alpha, alpha).real) / 2.0)


def weyl_apply(alpha, v):
    """Apply the displacement C(alpha); returns (vector, truncation_loss).

    Requires a truncated basis (displacement does not conserve particle
    number).  The loss reported is 1 - ||C(alpha) v||^2 relative to a unit
    input, which equals the probability mass pushed above the truncation.

    Two routes give the same projection of the untruncated image.  An input
    on s basis states with occupations k_s is displaced in closed form, as
    one contraction of the one-mode columns U_p[:, k_sp] of C(alpha_p) (see
    ``_displace_support``); a wide input by the normal-ordered factors on
    the grid of each mode (``_displace_grid``).  The route is the one with
    fewer multiply-adds: the closed form takes about
    s (n_max + 1) (lines + sum_p (max_s k_sp + 1)), with lines = C(n_max +
    d - 1, d - 1) the states of d - 1 modes, and the grid 2 (n_max + 1)^2
    lines per mode with alpha_p != 0.  So a basis state, a vacuum or a
    theta state's sector takes the closed form, and a displaced state,
    which fills the basis, takes the grid.

    Near o + j = n_max the factors grow like e^{|alpha_p| sqrt(n_max)}: past
    |alpha|^2 of about 750 the grid route overflows, and so does the closed
    form once a column it needs does; that raises SectorError.  Undoing a
    displacement errs by about eps e^{2 |alpha|^2}, unreported: on one mode
    weyl_apply(-a, weyl_apply(a, vacuum)) misses the vacuum by 1.7e-9,
    8.4e-3 and 1.4e4 at |a|^2 = 8, 16, 24, each call reporting loss <= 2.7e-15.
    """
    basis = v.basis
    if basis.sector[0] != "truncated":
        raise SectorError("Weyl displacement needs a truncated basis")
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape != (basis.d,):
        raise ValueError(f"alpha must have length d={basis.d}")
    if not np.all(np.isfinite(alpha)):
        raise ValueError(f"displacement alpha must be finite, got {alpha}")
    d, n_max = basis.d, basis.n_max
    a2 = float(np.vdot(alpha, alpha).real)
    if a2 == 0.0 or v.norm() == 0.0:
        return v.copy(), 0.0
    support = np.flatnonzero(v.coeffs)
    lines = comb(n_max + d - 1, d - 1)
    few = len(support) * (lines + d + int(basis.occs[support].max(axis=0).sum()))
    with np.errstate(over="ignore", invalid="ignore"):
        if few <= 2 * np.count_nonzero(alpha) * lines * (n_max + 1):
            w = _displace_support(alpha, v, support)
        else:
            w = _displace_grid(alpha, v)
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
