"""Closed-form rank and unrank, and vectorized ladder / field / dGamma
assembly and application, against a recursive enumeration and a per-state
oracle that looks every target up in a tuple -> index dict."""

from math import comb

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import focklab as fl
from focklab import states
from focklab.fock import _binomials, rank, unrank


def _compositions(total, slots):
    """All occupation tuples with the given total, descending lexicographic."""
    if slots == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def _lookup(basis):
    return {tuple(int(x) for x in row): i for i, row in enumerate(basis.occs)}


def _ref_ladder(kind, p, basis, out):
    index = _lookup(out)
    rows, cols, vals = [], [], []
    for i, occ in enumerate(basis.occs):
        occ = occ.copy()
        if kind == "annihilate":
            if occ[p] == 0:
                continue
            amp = np.sqrt(occ[p])
            occ[p] -= 1
        else:
            if basis.sector[0] == "truncated" and occ.sum() + 1 > basis.n_max:
                continue
            amp = np.sqrt(occ[p] + 1.0)
            occ[p] += 1
        rows.append(index[tuple(int(x) for x in occ)])
        cols.append(i)
        vals.append(amp)
    return sparse.csr_matrix(
        (vals, (rows, cols)), shape=(out.dim, basis.dim), dtype=complex
    )


def _ref_field(kind, f, basis, out):
    """a(f) or a*(f) as the sum of f_p times the per-state ladder matrices."""
    total = sparse.csr_matrix((out.dim, basis.dim), dtype=complex)
    for p in np.flatnonzero(f):
        total = total + f[p] * _ref_ladder(kind, p, basis, out)
    return total


def _ref_second_quantize(A, basis):
    index = _lookup(basis)
    rows, cols, vals = [], [], []
    for i, occ in enumerate(basis.occs):
        for q in range(basis.d):
            nq = occ[q]
            if nq == 0:
                continue
            for p in range(basis.d):
                if A[p, q] == 0:
                    continue
                if p == q:
                    rows.append(i)
                    cols.append(i)
                    vals.append(A[p, p] * nq)
                else:
                    amp = np.sqrt(nq * (occ[p] + 1.0))
                    tgt = occ.copy()
                    tgt[q] -= 1
                    tgt[p] += 1
                    rows.append(index[tuple(int(x) for x in tgt)])
                    cols.append(i)
                    vals.append(A[p, q] * amp)
    return sparse.csr_matrix(
        (vals, (rows, cols)), shape=(basis.dim, basis.dim), dtype=complex
    )


def _same_entries(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


def _same_bytes(a, b):
    assert a.shape == b.shape
    a.sort_indices()
    b.sort_indices()
    for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


bases = st.builds(
    lambda d, kind, n: fl.enumerate_basis(d, kind(n)),
    st.integers(1, 5),
    st.sampled_from([fl.fixed, fl.truncated]),
    st.integers(0, 8),
)


@settings(max_examples=60, deadline=None)
@given(basis=bases)
def test_rank_enumerates_the_basis(basis):
    assert np.array_equal(rank(basis, basis.occs), np.arange(basis.dim))


@settings(max_examples=80, deadline=None)
@given(basis=bases)
def test_sector_slices_index_of_and_vacuum_follow_the_totals(basis):
    # every total m from -1 to n_max + 1: held ones slice exactly their rows
    # and take index_of, the others raise; the vacuum exists iff 0 is held
    d, totals = basis.d, basis.totals
    for m in range(-1, basis.n_max + 2):
        rows = [np.full(d, m) * (np.arange(d) == p) for p in (0, d - 1)]
        if np.any(totals == m):
            sl = basis.sector_slice(m)
            assert np.array_equal(np.arange(basis.dim)[sl], np.flatnonzero(totals == m))
            assert all(sl.start <= basis.index_of(row) < sl.stop for row in rows)
        else:
            with pytest.raises(fl.SectorError):
                basis.sector_slice(m)
            for row in rows:
                with pytest.raises(KeyError):
                    basis.index_of(row)
    if np.any(totals == 0):
        assert np.array_equal(fl.vacuum(basis).coeffs, np.eye(basis.dim)[0])
    else:
        with pytest.raises(fl.SectorError):
            fl.vacuum(basis)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 5), n=st.integers(0, 8))
def test_fixed_sector_is_truncated_on_the_other_modes(d, n):
    # fixed(n) on d modes is truncated(n) on modes 1..d-1 with n_0 = n - total
    fixed, rest = fl.enumerate_basis(d, fl.fixed(n)), fl.enumerate_basis(d - 1, fl.truncated(n))
    assert np.array_equal(fixed.occs[:, 1:], rest.occs)
    assert np.array_equal(fixed.occs[:, 0], n - rest.totals)
    assert np.array_equal(rank(fixed, fixed.occs), rank(rest, fixed.occs[:, 1:]))


@pytest.mark.parametrize("kind", ["fixed", "truncated"])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_unrank_matches_recursive_enumeration(d, kind):
    for n in range(15):
        sectors = [n] if kind == "fixed" else range(n + 1)
        want = np.array([occ for k in sectors for occ in _compositions(k, d)], np.int64)
        dim = len(want)
        occs = unrank(d, (kind, n), np.arange(dim))
        assert occs.dtype == np.int64 and np.array_equal(occs, want)
        basis = fl.enumerate_basis(d, (kind, n))
        assert np.array_equal(basis.occs, want)
        assert np.array_equal(rank(basis, occs), np.arange(dim))


@pytest.mark.parametrize("n_max,d", [(0, 1), (0, 4), (7, 1), (40, 3), (300, 6)])
def test_binomial_table_is_exact(n_max, d):
    want = [[comb(s + k - 1, k) for s in range(n_max + 1)] for k in range(1, d + 1)]
    assert _binomials(n_max, d).tolist() == want


def test_binomial_table_refuses_to_wrap_around():
    with pytest.raises(OverflowError):
        _binomials(10**6, 5)  # C(1000004, 5) is about 8.3e27


def test_unrank_of_a_subset_inverts_rank():
    basis = fl.enumerate_basis(3, fl.truncated(96))
    idx = np.array([0, 1, 4, 4, 1000, basis.dim - 1])
    occs = unrank(3, basis.sector, idx)
    assert np.array_equal(occs, basis.occs[idx])
    assert np.array_equal(rank(basis, occs), idx)


@settings(max_examples=60, deadline=None)
@given(basis=bases, kind=st.sampled_from(["create", "annihilate"]), data=st.data())
def test_ladder_matrix_matches_per_state_oracle(basis, kind, data):
    if kind == "annihilate" and basis.sector == ("fixed", 0):
        return
    p = data.draw(st.integers(0, basis.d - 1))
    mat, out = fl.ladder_matrix(kind, p, basis)
    _same_entries(mat, _ref_ladder(kind, p, basis, out))


def _smearing(rng, d, conj_real):
    f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    if conj_real:  # conj of a real vector: imaginary parts are -0.0
        f = np.conj(f.real + 0j)
    f[rng.random(d) < 0.3] = 0.0
    return f


@settings(max_examples=80, deadline=None)
@given(basis=bases, kind=st.sampled_from(["create", "annihilate"]),
       seed=st.integers(0, 2**32 - 1), conj_real=st.booleans())
def test_field_matrix_matches_sum_of_ladders(basis, kind, seed, conj_real):
    if kind == "annihilate" and basis.sector == ("fixed", 0):
        return
    f = _smearing(np.random.default_rng(seed), basis.d, conj_real)
    mat, out = fl.field_matrix(kind, f, basis)
    _same_bytes(mat, _ref_field(kind, f, basis, out))
    zero, _ = fl.field_matrix(kind, np.zeros(basis.d), basis)
    _same_bytes(zero, _ref_field(kind, np.zeros(basis.d), basis, out))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["create", "annihilate"])
def test_field_matrix_top_truncated_sector(d, kind):
    basis = fl.enumerate_basis(d, fl.truncated(4))
    f = _smearing(np.random.default_rng(d), d, conj_real=False)
    f[0] = 0.5 - 0.25j
    mat, out = fl.field_matrix(kind, f, basis)
    _same_bytes(mat, _ref_field(kind, f, basis, out))
    top = basis.sector_slice(4)
    reached = mat[:, top].tocoo().row
    if kind == "create":  # nothing above n_max
        assert reached.size == 0
    else:  # a(f) lowers the top sector into sector 3
        assert set(basis.totals[reached]) == {3}


@settings(max_examples=40, deadline=None)
@given(basis=bases, kind=st.sampled_from(["create", "annihilate"]), data=st.data())
def test_ladder_matrix_is_field_matrix_of_unit_vector(basis, kind, data):
    if kind == "annihilate" and basis.sector == ("fixed", 0):
        return
    p = data.draw(st.integers(0, basis.d - 1))
    ladder, out = fl.ladder_matrix(kind, p, basis)
    field, out2 = fl.field_matrix(kind, np.eye(basis.d)[p], basis)
    assert out == out2
    _same_bytes(ladder, field)


@settings(max_examples=60, deadline=None)
@given(basis=bases, seed=st.integers(0, 2**32 - 1))
def test_second_quantize_matches_per_state_oracle(basis, seed):
    rng = np.random.default_rng(seed)
    d = basis.d
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    A[rng.random((d, d)) < 0.3] = 0.0
    _same_entries(fl.second_quantize(A, basis).matrix, _ref_second_quantize(A, basis))
    number = fl.second_quantize(np.eye(d), basis).matrix
    assert (number - fl.number_operator(basis).matrix).count_nonzero() == 0


@pytest.mark.parametrize(
    "occ",
    [(1, 1), (1, 1, 1, 0), (-1, 2, 1), (1, 1, 0), (3, 1, 0)],
    ids=["short", "long", "negative", "total-below", "total-above"],
)
def test_index_of_rejects_occupations_outside_fixed_sector(occ):
    b = fl.enumerate_basis(3, fl.fixed(3))
    with pytest.raises(KeyError):
        b.index_of(occ)
    with pytest.raises(KeyError):
        fl.basis_state(b, occ)


@pytest.mark.parametrize(
    "occ", [(1,), (-1, 2), (2, 2)], ids=["wrong-length", "negative", "total-above"]
)
def test_index_of_rejects_occupations_outside_truncation(occ):
    b = fl.enumerate_basis(2, fl.truncated(3))
    with pytest.raises(KeyError):
        b.index_of(occ)
    with pytest.raises(KeyError):
        fl.basis_state(b, occ)


small_bases = st.builds(
    lambda d, kind, n: fl.enumerate_basis(d, kind(n)),
    st.integers(1, 4),
    st.sampled_from([fl.fixed, fl.truncated]),
    st.integers(0, 8),
)


@settings(max_examples=80, deadline=None)
@given(basis=small_bases, kind=st.sampled_from(["create", "annihilate"]),
       seed=st.integers(0, 2**32 - 1), conj_real=st.booleans())
def test_field_apply_matches_per_state_oracle(basis, kind, seed, conj_real):
    rng = np.random.default_rng(seed)
    v = fl.FockVector(basis, rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim))
    if kind == "annihilate" and basis.sector == ("fixed", 0):
        with pytest.raises(fl.SectorError):
            fl.field_apply(kind, np.ones(basis.d), v)
        with pytest.raises(fl.SectorError):
            fl.ladder_apply(kind, 0, v)
        return
    f = _smearing(rng, basis.d, conj_real)
    got = fl.field_apply(kind, f, v)
    _, out = fl.field_matrix(kind, f, basis)
    assert got.basis == out
    assert np.max(np.abs(got.coeffs - _ref_field(kind, f, basis, out) @ v.coeffs),
                  initial=0.0) <= 1e-13
    p = int(rng.integers(basis.d))
    one = fl.ladder_apply(kind, p, v)
    assert one.basis == out
    assert np.max(np.abs(one.coeffs - _ref_ladder(kind, p, basis, out) @ v.coeffs),
                  initial=0.0) <= 1e-13


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_field_apply_top_truncated_sector(d):
    # a*(f) drops what the top sector would push above n_max; a(f) lowers it
    basis = fl.enumerate_basis(d, fl.truncated(4))
    top = basis.sector_slice(4)
    c = np.zeros(basis.dim, complex)
    c[top] = np.random.default_rng(d).standard_normal(top.stop - top.start)
    v = fl.FockVector(basis, c)
    f = np.full(d, 0.5 - 0.25j)
    assert fl.field_apply("create", f, v).norm() == 0.0
    low = fl.field_apply("annihilate", f, v)
    assert low.norm() > 0.0
    assert set(basis.totals[np.flatnonzero(low.coeffs)]) == {3}


def test_field_apply_assembles_no_matrix(monkeypatch):
    # field_apply, ladder_apply and the orthogonality defect act on the
    # coefficients; a field_matrix or ladder_matrix call would bring back
    # the per-call sparse assembly they replaced
    from focklab import fock

    def refuse(*args, **kwargs):
        raise AssertionError("a matrix was assembled")

    monkeypatch.setattr(fock, "field_matrix", refuse)
    monkeypatch.setattr(fock, "ladder_matrix", refuse)
    rng = np.random.default_rng(3)
    for sector in (fl.fixed(3), fl.truncated(3)):
        basis = fl.enumerate_basis(3, sector)
        v = fl.FockVector(basis, rng.standard_normal(basis.dim) + 0j)
        for kind in ("create", "annihilate"):
            assert fl.field_apply(kind, np.array([1.0, 0.5j, 0.0]), v).norm() > 0
            assert fl.ladder_apply(kind, 1, v).norm() > 0
    phi = np.array([1.0, 0.0, 0.0])
    psi = fl.basis_state(fl.enumerate_basis(3, fl.fixed(2)), (0, 1, 1))
    assert states._orthogonality_defect(phi, psi) == 0.0
