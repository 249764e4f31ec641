"""Basis enumeration, ladder algebra, second quantization, Weyl displacement."""

from math import comb, factorial, sqrt

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import pdtrc

import focklab as fl
from focklab import fock
from focklab.states import _tensor_from_fixed
from focklab.tolerances import DEFAULT_STATE_CAP

from conftest import random_fock, random_hermitian, random_unit


# ---------------------------------------------------------------------------
# enumerate_basis


def test_single_mode_sector_has_one_state():
    b = fl.enumerate_basis(1, fl.fixed(3))
    assert b.dim == 1
    assert tuple(b.occs[0]) == (3,)


def test_two_mode_sector_enumeration():
    b = fl.enumerate_basis(2, fl.fixed(2))
    assert [tuple(r) for r in b.occs] == [(2, 0), (1, 1), (0, 2)]


def test_truncated_dimension_by_binomial_sum():
    b = fl.enumerate_basis(3, fl.truncated(2))
    assert b.dim == 10  # 1 + 3 + 6


@given(d=st.integers(1, 4), n=st.integers(0, 6))
@settings(deadline=None, max_examples=30)
def test_sector_dimension_formulas(d, n):
    assert fl.enumerate_basis(d, fl.fixed(n)).dim == comb(n + d - 1, d - 1)
    assert fl.enumerate_basis(d, fl.truncated(n)).dim == sum(
        comb(k + d - 1, d - 1) for k in range(n + 1)
    )


def test_index_map_round_trip():
    b = fl.enumerate_basis(3, fl.truncated(4))
    for i, occ in enumerate(b.occs):
        assert b.index_of(occ) == i


@pytest.mark.parametrize("make", [
    lambda: fl.fixed(2.7),
    lambda: fl.truncated(2.0),
    lambda: fl.truncated(np.float64(3)),
    lambda: fl.enumerate_basis(2, ("fixed", 2.7)),
    lambda: fl.enumerate_basis(2, ("truncated", "3")),
    lambda: fl.enumerate_basis(2.5, fl.fixed(2)),
], ids=["fixed", "truncated", "truncated-numpy-float", "basis-sector", "basis-string",
        "basis-modes"])
def test_non_integral_sizes_raise(make):
    with pytest.raises(ValueError, match="must be an integer"):
        make()


def test_numpy_integer_sizes_are_accepted():
    b = fl.enumerate_basis(np.int64(2), fl.truncated(np.int32(3)))
    assert b == fl.enumerate_basis(2, fl.truncated(3))
    assert fl.fixed(np.uint8(2)) == ("fixed", 2)


@pytest.mark.parametrize("occ", [(0.5, 1.5), (1.0, 1.0), np.array([1.0, 1.0])],
                         ids=["fractional", "float-tuple", "float-array"])
def test_index_of_rejects_non_integer_occupations(occ):
    b = fl.enumerate_basis(2, fl.fixed(2))
    with pytest.raises(KeyError):
        b.index_of(occ)
    with pytest.raises(KeyError):
        fl.basis_state(b, occ)
    assert b.index_of(np.array([1, 1], dtype=np.int32)) == 1


def test_capacity_cap_raises_before_enumerating(monkeypatch):
    def unrank(*args):
        raise AssertionError("enumerated a basis above the cap")

    monkeypatch.setattr(fl.fock, "unrank", unrank)
    with pytest.raises(fl.CapacityError):
        fl.enumerate_basis(8, fl.truncated(40))


# ---------------------------------------------------------------------------
# ladder operators


def test_create_on_vacuum():
    b = fl.enumerate_basis(2, fl.fixed(0))
    out = fl.ladder_apply("create", 0, fl.vacuum(b))
    assert out.basis.sector == ("fixed", 1)
    assert out.coeffs[out.basis.index_of((1, 0))] == pytest.approx(1.0)


def _annihilate_oracle(p, v):
    """Contract the explicit symmetric tensor: (a_p psi)(x..) = sqrt(n) psi(p, x..)."""
    n = v.basis.sector[1]
    T = _tensor_from_fixed(v)
    lowered = sqrt(n) * np.asarray(T)[p]
    out_basis = fl.enumerate_basis(v.basis.d, fl.fixed(n - 1))
    coeffs = np.zeros(out_basis.dim, dtype=complex)
    for i, occ in enumerate(out_basis.occs):
        rep = tuple(
            mode for mode, k in enumerate(occ) for _ in range(int(k))
        )
        scale = sqrt(factorial(n - 1)) / np.sqrt(
            np.prod([factorial(int(k)) for k in occ])
        )
        coeffs[i] = scale * (lowered[rep] if rep else lowered)
    return fl.FockVector(out_basis, coeffs)


def test_annihilate_matches_tensor_contraction_oracle():
    b = fl.enumerate_basis(2, fl.fixed(4))
    v = fl.basis_state(b, (3, 1))
    got = fl.ladder_apply("annihilate", 0, v)
    want = _annihilate_oracle(0, v)
    assert (got - want).norm() < 1e-12
    assert got.coeffs[got.basis.index_of((2, 1))] == pytest.approx(sqrt(3))


def test_annihilate_random_state_matches_oracle(rng):
    b = fl.enumerate_basis(3, fl.fixed(3))
    v = random_fock(b, rng)
    for p in range(3):
        got = fl.ladder_apply("annihilate", p, v)
        want = _annihilate_oracle(p, v)
        assert (got - want).norm() < 1e-12


def test_annihilate_empty_mode_gives_zero():
    b = fl.enumerate_basis(2, fl.fixed(2))
    out = fl.ladder_apply("annihilate", 1, fl.basis_state(b, (2, 0)))
    assert out.norm() == 0.0


def test_ladder_mode_out_of_range():
    b = fl.enumerate_basis(2, fl.fixed(1))
    with pytest.raises(ValueError):
        fl.ladder_apply("create", 2, fl.basis_state(b, (1, 0)))


@pytest.mark.parametrize("p", [1.5, 1.0, "0"])
def test_ladder_mode_must_be_an_integer(p):
    # a float index used to escape as numpy's IndexError
    b = fl.enumerate_basis(2, fl.fixed(1))
    for call in (lambda: fl.ladder_apply("annihilate", p, fl.basis_state(b, (1, 0))),
                 lambda: fl.ladder_matrix("create", p, b)):
        with pytest.raises(ValueError, match=rf"^mode index must be an integer, got {p!r}$"):
            call()


def test_annihilate_below_vacuum_sector_raises():
    b = fl.enumerate_basis(2, fl.fixed(0))
    with pytest.raises(fl.SectorError):
        fl.ladder_apply("annihilate", 0, fl.vacuum(b))


def test_truncated_create_drops_overflow():
    b = fl.enumerate_basis(1, fl.truncated(2))
    top = fl.basis_state(b, (2,))
    out = fl.ladder_apply("create", 0, top)
    assert out.basis == b
    assert out.norm() == 0.0


def test_adjointness_of_ladder_matrices(rng):
    for d, n in [(2, 3), (3, 2)]:
        b = fl.enumerate_basis(d, fl.fixed(n))
        for p in range(d):
            a_mat, down = fl.ladder_matrix("annihilate", p, b)
            c_mat, up = fl.ladder_matrix("create", p, down)
            assert up == b
            assert np.max(np.abs((a_mat - c_mat.getH()).toarray())) < 1e-12


# ---------------------------------------------------------------------------
# smeared field operators (linear in the argument)


def test_field_create_basis_vector_on_vacuum():
    b = fl.enumerate_basis(3, fl.fixed(0))
    e0 = np.array([1.0, 0, 0], dtype=complex)
    out = fl.field_apply("create", e0, fl.vacuum(b))
    assert out.coeffs[out.basis.index_of((1, 0, 0))] == pytest.approx(1.0)


def test_field_annihilate_by_linearity():
    b = fl.enumerate_basis(2, fl.fixed(2))
    f = np.array([1.0, 1.0]) / sqrt(2)
    out = fl.field_apply("annihilate", f, fl.basis_state(b, (1, 1)))
    want = np.zeros(out.basis.dim, dtype=complex)
    want[out.basis.index_of((0, 1))] = 1 / sqrt(2)
    want[out.basis.index_of((1, 0))] = 1 / sqrt(2)
    assert np.allclose(out.coeffs, want, atol=1e-14)


def test_field_commutator_is_linear_not_sesquilinear(rng):
    # [a(f), a*(g)] = sum_p f_p g_p with no conjugation anywhere
    d = 3
    b = fl.enumerate_basis(d, fl.truncated(5))
    f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v = random_fock(b, rng)
    interior = v.coeffs.copy()
    interior[b.totals > 3] = 0.0
    v = fl.FockVector(b, interior / np.linalg.norm(interior))
    fw = fl.field_apply("annihilate", f, fl.field_apply("create", g, v))
    bw = fl.field_apply("create", g, fl.field_apply("annihilate", f, v))
    resid = fw.coeffs - bw.coeffs - np.sum(f * g) * v.coeffs
    resid[b.totals > 3] = 0.0
    assert np.max(np.abs(resid)) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
@pytest.mark.parametrize("kind", ["create", "annihilate"])
def test_field_rejects_non_finite_smearing(kind, bad):
    b = fl.enumerate_basis(2, fl.truncated(2))
    f = np.array([bad, 0.5])
    with pytest.raises(ValueError, match="smearing vector f must be finite"):
        fl.field_apply(kind, f, fl.vacuum(b))
    with pytest.raises(ValueError, match="smearing vector f must be finite"):
        fl.field_matrix(kind, f, b)


def test_field_length_mismatch():
    b = fl.enumerate_basis(2, fl.fixed(1))
    with pytest.raises(ValueError):
        fl.field_apply("create", np.ones(3), fl.basis_state(b, (1, 0)))


def test_field_adjoint_pairing(rng):
    # <u, a*(f) w> = <a(conj f) u, w>
    b = fl.enumerate_basis(3, fl.fixed(2))
    up = fl.enumerate_basis(3, fl.fixed(3))
    f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    w = random_fock(b, rng)
    u = random_fock(up, rng)
    lhs = u.inner(fl.field_apply("create", f, w))
    rhs = fl.field_apply("annihilate", np.conj(f), u).inner(w)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_field_number_bound(rng):
    from focklab.dynamics import number_moment

    b = fl.enumerate_basis(3, fl.truncated(5))
    for _ in range(20):
        v = random_fock(b, rng)
        f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lim = np.linalg.norm(f) * number_moment(v, 0.5)
        for kind in ("annihilate", "create"):
            assert fl.field_apply(kind, f, v).norm() <= lim * (1 + 1e-12)


# ---------------------------------------------------------------------------
# second quantization and the Hamiltonian


def test_second_quantize_identity_is_number_operator():
    b = fl.enumerate_basis(2, fl.fixed(3))
    dG = fl.second_quantize(np.eye(2), b)
    assert np.max(np.abs(dG.to_dense() - 3 * np.eye(b.dim))) == 0.0


def test_second_quantize_occupation_count():
    b = fl.enumerate_basis(2, fl.fixed(3))
    A = np.diag([1.0, 0.0])
    v = fl.basis_state(b, (2, 1))
    out = fl.second_quantize(A, b).apply(v)
    assert np.allclose(out.coeffs, 2.0 * v.coeffs)


def test_second_quantize_single_hop():
    b = fl.enumerate_basis(2, fl.fixed(1))
    A = np.array([[0, 0], [1, 0]], dtype=complex)  # e1 e0^T: moves 0 -> 1
    out = fl.second_quantize(A, b).apply(fl.basis_state(b, (1, 0)))
    assert out.coeffs[b.index_of((0, 1))] == pytest.approx(1.0)


def test_second_quantize_assembles_the_hermitian_part():
    # A is Hermitian to HERMITICITY_TOL, but sqrt(o_q (o_p + 1)) scales its
    # 1e-13 asymmetry past that tolerance on fixed(40)
    A = np.array([[1, 0.5 + 1e-13j], [0.5, 2]])
    dG = fl.second_quantize(A, fl.enumerate_basis(2, fl.fixed(40)))
    assert dG.hermitian
    assert abs(dG.matrix - dG.matrix.getH()).max() == 0.0


def test_dgamma_one_equals_number_operator_entrywise():
    for d, spec in [(2, fl.fixed(4)), (3, fl.truncated(3))]:
        b = fl.enumerate_basis(d, spec)
        dG = fl.second_quantize(np.eye(d), b).matrix
        N = fl.number_operator(b).matrix
        assert (dG != N).nnz == 0


def test_free_hamiltonian_is_second_quantized_h(rng):
    h = random_hermitian(3, rng)
    ms = fl.ModeSystem.dense(h, np.zeros((3, 3)))
    b = fl.enumerate_basis(3, fl.fixed(3))
    H = fl.build_hamiltonian(ms, 7, b)
    dG = fl.second_quantize(h, b)
    assert np.max(np.abs((H.matrix - dG.matrix).toarray())) < 1e-14


def test_single_mode_interaction_eigenvalue():
    g = 1.7
    ms = fl.ModeSystem.dense(np.zeros((1, 1)), np.array([[g]]))
    for n in (2, 5):
        b = fl.enumerate_basis(1, fl.fixed(n))
        H = fl.build_hamiltonian(ms, n, b)
        assert H.to_dense()[0, 0] == pytest.approx(g / (2 * n) * n * (n - 1))


def test_hamiltonian_commutes_with_number(rng):
    ms = fl.ModeSystem.dense(random_hermitian(2, rng), rng.standard_normal((2, 2)))
    b = fl.enumerate_basis(2, fl.truncated(5))
    H = fl.build_hamiltonian(ms, 3, b).matrix.toarray()
    N = fl.number_operator(b).matrix.toarray()
    v = random_fock(b, rng)
    comm = H @ N - N @ H
    assert abs(np.vdot(v.coeffs, comm @ v.coeffs)) < 1e-12
    assert np.max(np.abs(comm)) < 1e-12


def test_hamiltonian_is_hermitian_flagged(rng):
    ms = fl.ModeSystem.dense(random_hermitian(3, rng), rng.standard_normal((3, 3)))
    b = fl.enumerate_basis(3, fl.fixed(2))
    H = fl.build_hamiltonian(ms, 2, b)
    assert H.hermitian


def test_hermiticity_is_checked_once_per_hamiltonian(monkeypatch, rng):
    from focklab import fock

    checked = []
    post_init = fock.SparseOperator.__post_init__

    def counting(self):
        checked.append(self.hermitian)
        post_init(self)

    monkeypatch.setattr(fock.SparseOperator, "__post_init__", counting)
    ms = fl.ModeSystem.dense(random_hermitian(3, rng), rng.standard_normal((3, 3)))
    b = fl.enumerate_basis(3, fl.truncated(3))
    H = fl.build_hamiltonian(ms, 2, b)
    assert checked == [True]
    # called directly, second_quantize still checks its own result
    dG = fl.second_quantize(ms.h, b)
    assert dG.hermitian and checked == [True, True]
    diag = H.matrix - dG.matrix
    assert diag.count_nonzero() == np.count_nonzero(diag.diagonal())


def _hamiltonian_case(name):
    """(mode system, sector, n_scale) of a named Hamiltonian test case."""
    rng = np.random.default_rng(11)
    return {
        "contact3-truncated29": (fl.ModeSystem.lattice(3), fl.truncated(29), 29),
        "contact4-fixed18": (fl.ModeSystem.lattice(4), fl.fixed(18), 18),
        "gaussian4-truncated9": (fl.ModeSystem.lattice(4, potential=("gaussian", 0.7, 1.3)),
                                 fl.truncated(9), 9),
        "neighbor2-truncated20": (fl.ModeSystem.lattice(2, 0.5, ("neighbor", 2.0)),
                                  fl.truncated(20), 20),
        "dense3-truncated8": (fl.ModeSystem.dense(random_hermitian(3, rng),
                                                  rng.standard_normal((3, 3))),
                              fl.truncated(8), 8),
    }[name]


@pytest.mark.parametrize("name", ["contact3-truncated29", "contact4-fixed18",
                                  "gaussian4-truncated9", "neighbor2-truncated20",
                                  "dense3-truncated8"])
def test_hamiltonian_is_the_two_pass_assembly_bit_for_bit(name):
    # one COO-to-CSR assembly of dGamma(h) and the interaction diagonal gives
    # the matrix of dGamma(h) + diags(quad / 2n), converted to CSR once more
    ms, sector, n = _hamiltonian_case(name)
    b = fl.enumerate_basis(ms.d, sector)
    occ = b.occs.astype(float)
    quad = np.einsum("ip,pq,iq->i", occ, ms.v, occ) - occ @ np.diag(ms.v)
    want = (fock._dgamma(ms.h, b) + sp.diags(quad / (2.0 * n))).tocsr()
    got = fl.build_hamiltonian(ms, n, b).matrix
    assert got.data.dtype == want.data.dtype
    for part in ("indptr", "indices", "data"):
        assert getattr(got, part).tobytes() == getattr(want, part).tobytes()


def test_hermiticity_pledge_rejects_a_non_hermitian_matrix():
    b = fl.enumerate_basis(2, fl.fixed(1))
    with pytest.raises(ValueError, match="operator is not Hermitian to 1e-12"):
        fl.SparseOperator(b, sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])), hermitian=True)
    assert fl.SparseOperator(b, sp.csr_matrix((2, 2)), hermitian=True).hermitian


# ---------------------------------------------------------------------------
# Weyl displacement


@pytest.mark.parametrize("cols", [np.arange(71), np.array([0, 5, 70])])
def test_displacement_caches_only_the_rows_it_reads(cols):
    # the cache keeps rows 0..n_max of the eigenvectors (rounded up to 64),
    # and the block is the one the full eigenvector matrix gives, bit for bit
    from scipy.linalg import eigh_tridiagonal

    z, n_max = 3.0 - 1.5j, 70
    got = fock._displacement(z, n_max, cols)
    need = max(n_max + 1, fl.weyl_headroom(sqrt(cols.max()) + abs(z) + 1.0))
    box = -(-need // 64) * 64
    hits = fock._spectrum.cache_info().hits
    lam, kept = fock._spectrum(box, 128)
    assert fock._spectrum.cache_info().hits == hits + 1
    assert kept.shape == (128, box) and box > 128
    lam, vec = eigh_tridiagonal(np.zeros(box), np.sqrt(np.arange(1.0, box)))
    left, right, r = vec[: n_max + 1], vec[cols].T, abs(z)
    block = (left * np.cos(r * lam)) @ right + 1j * ((left * np.sin(r * lam)) @ right)
    c = np.exp(1j * (np.angle(z) - np.pi / 2) * np.arange(n_max + 1))
    assert got.tobytes() == (c[:, None] * block * np.conj(c[cols])).tobytes()


def test_weyl_zero_is_identity(rng):
    b = fl.enumerate_basis(2, fl.truncated(4))
    v = random_fock(b, rng)
    out, loss = fl.weyl_apply(np.zeros(2, dtype=complex), v)
    assert (out - v).norm() == 0.0
    assert loss == 0.0


def test_weyl_coherent_coefficients_single_mode():
    alpha = 2.0
    b = fl.enumerate_basis(1, fl.truncated(fl.weyl_headroom(alpha)))
    out, loss = fl.weyl_apply(np.array([alpha + 0j]), fl.vacuum(b))
    assert loss < 1e-10
    for k in range(10):
        want = np.exp(-(alpha**2) / 2) * alpha**k / sqrt(factorial(k))
        assert out.coeffs[b.index_of((k,))] == pytest.approx(want, abs=1e-12)


def test_weyl_mean_occupation_of_coherent_state():
    n = 4
    b = fl.enumerate_basis(2, fl.truncated(40))
    phi = np.array([0.6, 0.8], dtype=complex)
    out, _ = fl.weyl_apply(sqrt(n) * phi, fl.vacuum(b))
    N = fl.number_operator(b)
    assert N.expectation(out) == pytest.approx(n, abs=1e-8)


def test_weyl_requires_truncated_basis():
    b = fl.enumerate_basis(2, fl.fixed(2))
    with pytest.raises(fl.SectorError):
        fl.weyl_apply(np.ones(2, dtype=complex), fl.basis_state(b, (1, 1)))


def test_weyl_matches_matrix_exponential_oracle(rng):
    # exp of the assembled anti-Hermitian generator at tiny dimension; both
    # routes approximate the untruncated operator, so the state needs ample
    # headroom below the truncation for them to agree
    d = 2
    b = fl.enumerate_basis(d, fl.truncated(20))
    alpha = 0.5 * random_unit(d, rng)
    cre, _ = fl.field_matrix("create", alpha, b)
    ann, _ = fl.field_matrix("annihilate", np.conj(alpha), b)
    U = sla.expm((cre - ann).toarray())
    v = random_fock(b, rng)
    interior = v.coeffs.copy()
    interior[b.totals > 4] = 0.0
    v = fl.FockVector(b, interior / np.linalg.norm(interior))
    got, _ = fl.weyl_apply(alpha, v)
    assert np.linalg.norm(got.coeffs - U @ v.coeffs) < 1e-8


def test_weyl_unitarity_within_loss(rng):
    b = fl.enumerate_basis(2, fl.truncated(30))
    alpha = 1.2 * random_unit(2, rng)
    v = random_fock(b, rng)
    interior = v.coeffs.copy()
    interior[b.totals > 8] = 0.0
    v = fl.FockVector(b, interior / np.linalg.norm(interior))
    out, loss = fl.weyl_apply(alpha, v)
    assert abs(out.norm() ** 2 - (1.0 - loss)) < 1e-12
    # the round trip re-enters at amplitude level, so the residual scales as
    # the square root of the lost mass (floored by fp noise in the report)
    back, loss2 = fl.weyl_apply(-alpha, out)
    assert (back - v).norm() <= 2 * sqrt(loss + loss2 + 1e-14)
    assert (back - v).norm() < 1e-6


def test_weyl_composition_phase(rng):
    # up to |alpha|^2 = 50, where the second factor acts on a wide input
    d = 2
    for size_a, size_b in ((0.8, 0.6), (4.0, 3.0), (sqrt(50.0), 2.0)):
        alpha = size_a * random_unit(d, rng)
        beta = size_b * random_unit(d, rng)
        b = fl.enumerate_basis(d, fl.truncated(fl.weyl_headroom(size_a + size_b)))
        v = fl.vacuum(b)
        two, _ = fl.weyl_apply(beta, v)
        two, _ = fl.weyl_apply(alpha, two)
        one, _ = fl.weyl_apply(alpha + beta, v)
        phase = np.exp(-1j * np.vdot(alpha, beta).imag)
        assert (two - phase * one).norm() < 1e-8


def _series_weyl(alpha, v):
    """e^{-|alpha|^2/2} e^{a*(alpha)} e^{-a(conj alpha)} v by power series in
    the assembled field matrices; both are nilpotent on a truncated basis, so
    n_max + 1 terms are the whole series.  Also returns the norm of the
    intermediate e^{-|alpha|^2/2} e^{-a(conj alpha)} v."""
    b = v.basis
    ann, _ = fl.field_matrix("annihilate", np.conj(alpha), b)
    cre, _ = fl.field_matrix("create", alpha, b)
    scale, w, steps = np.exp(-np.vdot(alpha, alpha).real / 2), v.coeffs, []
    for mat, sign in ((ann, -1.0), (cre, 1.0)):
        term = w
        for k in range(1, b.n_max + 2):
            term = (sign / k) * (mat @ term)
            w = w + term
        steps.append(scale * w)
    return steps[1], np.linalg.norm(steps[0])


@given(d=st.integers(1, 3), n_max=st.integers(0, 14), size=st.floats(0, 2),
       seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(deadline=None, max_examples=80)
def test_weyl_matches_power_series_oracle(d, n_max, size, seed, data):
    # the oracle's creation factor cancels its intermediate back to norm
    # <= 1, so the oracle rounds in proportion to the intermediate's norm
    # (up to 30 at |alpha| = 2 on truncated(14), one mode)
    rng = np.random.default_rng(seed)
    alpha = size * random_unit(d, rng)
    alpha[data.draw(st.lists(st.booleans(), min_size=d, max_size=d))] = 0.0
    v = random_fock(fl.enumerate_basis(d, fl.truncated(n_max)), rng)
    if data.draw(st.booleans()):
        # 1 to n_max + 1 states at random positions, most of them high in the basis
        support = data.draw(st.integers(1, n_max + 1))
        keep = rng.choice(v.basis.dim, min(support, v.basis.dim), replace=False)
        coeffs = np.zeros_like(v.coeffs)
        coeffs[keep] = v.coeffs[keep]
        v = fl.FockVector(v.basis, coeffs / np.linalg.norm(coeffs))
    got, loss = fl.weyl_apply(alpha, v)
    want, intermediate = _series_weyl(alpha, v)
    tol = 1e-12 * max(1.0, intermediate)
    assert np.max(np.abs(got.coeffs - want)) < tol
    assert abs(loss - max(1.0 - np.linalg.norm(want) ** 2, 0.0)) < tol


@pytest.mark.parametrize("d,n_max", [(1, 6), (2, 5), (3, 4)])
def test_weyl_truncation_is_projection_of_larger_basis(d, n_max, rng):
    # truncated(n_max) is the leading block of truncated(n_max + 20), and the
    # image there restricted to it must be the image on the small basis
    small = fl.enumerate_basis(d, fl.truncated(n_max))
    large = fl.enumerate_basis(d, fl.truncated(n_max + 20))
    alpha = 1.5 * random_unit(d, rng)
    v = random_fock(small, rng)
    padded = np.zeros(large.dim, dtype=complex)
    padded[: small.dim] = v.coeffs
    got, _ = fl.weyl_apply(alpha, v)
    wide, _ = fl.weyl_apply(alpha, fl.FockVector(large, padded))
    assert np.max(np.abs(got.coeffs - wide.coeffs[: small.dim])) < 1e-13


@pytest.mark.parametrize("n", [100, 300])
@pytest.mark.parametrize("d", [1, 2])
def test_weyl_vacuum_is_coherent_state_at_large_n(n, d, rng):
    phi = random_unit(d, rng)
    b = fl.enumerate_basis(d, fl.truncated(fl.weyl_headroom(sqrt(n))))
    got, _ = fl.weyl_apply(sqrt(n) * phi, fl.vacuum(b))
    want = fl.coherent_state(phi, n, b)
    assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-13


def test_weyl_stays_bounded_at_large_n(rng):
    # every one-mode entry is bounded by 1, so neither the vacuum nor a dense
    # input can overflow at n = 800; undoing the dense input's displacement
    # misses it by at most the amplitude the truncation dropped, sqrt(loss)
    phi = np.array([1.0 + 0j])
    for n in (600, 800):
        b = fl.enumerate_basis(1, fl.truncated(fl.weyl_headroom(sqrt(n))))
        got, _ = fl.weyl_apply(sqrt(n) * phi, fl.vacuum(b))
        assert np.max(np.abs(got.coeffs - fl.coherent_state(phi, n, b).coeffs)) < 1e-13
    v = random_fock(b, rng)
    out, loss = fl.weyl_apply(sqrt(800) * phi, v)
    assert np.all(np.isfinite(out.coeffs))
    assert out.norm() <= 1.0 + 1e-12
    back, _ = fl.weyl_apply(-sqrt(800) * phi, out)
    assert (back - v).norm() <= 2 * sqrt(loss) + 1e-12


@pytest.mark.parametrize("d,a2", [(1, 16), (1, 64), (1, 100), (1, 400), (3, 32)])
def test_weyl_round_trip_misses_only_the_dropped_amplitude(d, a2, rng):
    # undoing a displacement returns the vacuum up to the amplitude the
    # truncation dropped: sqrt of the Poisson tail above n_max, which is
    # 1e-8 on a weyl_headroom basis and below rounding 60 levels higher;
    # on 3 modes the undoing step takes the grid on up to 632,710 states
    alpha = sqrt(a2) * random_unit(d, rng)
    for extra in (60, 0):
        b = fl.enumerate_basis(d, fl.truncated(fl.weyl_headroom(sqrt(a2)) + extra))
        out, _ = fl.weyl_apply(alpha, fl.vacuum(b))
        back, _ = fl.weyl_apply(-alpha, out)
        dropped = 0.0 if extra else 2 * sqrt(pdtrc(b.n_max, a2))
        assert (back - fl.vacuum(b)).norm() <= dropped + 1e-12


def test_weyl_grid_refuses_array_above_cap(rng):
    # a dense input on 6 modes at n_max = 22 takes the grid, whose pass for
    # the third mode would pair C(25, 3)^2 states of 3 + 3 modes, above the
    # cap, though the basis holds 376,740 states
    b = fl.enumerate_basis(6, fl.truncated(22))
    assert comb(25, 3) ** 2 > DEFAULT_STATE_CAP > b.dim
    with pytest.raises(fl.CapacityError, match="Weyl grid"):
        fl.weyl_apply(0.5 * random_unit(6, rng), random_fock(b, rng))


def _spy_routes(monkeypatch):
    """The names of the Weyl routes taken, in call order."""
    from focklab import fock

    routes = []
    for name in ("_displace_grid", "_displace_support"):
        def spy(*args, _name=name, _f=getattr(fock, name)):
            routes.append(_name)
            return _f(*args)
        monkeypatch.setattr(fock, name, spy)
    return routes


@pytest.mark.parametrize("d,n", [(4, 8), (5, 1)])
def test_weyl_grid_undoes_wide_inputs_on_many_modes(d, n, rng, monkeypatch):
    # fluctuation_apply undoes a wide input on a weyl_headroom(sqrt(n))
    # basis: 249,900 states on 4 modes at n = 8 and 142,506 on 5 modes at
    # n = 1, whose grid passes hold at most 1,382,976 and 1,149,876 entries
    alpha = sqrt(n) * random_unit(d, rng)
    b = fl.enumerate_basis(d, fl.truncated(fl.weyl_headroom(sqrt(n))))
    routes = _spy_routes(monkeypatch)
    out, _ = fl.weyl_apply(alpha, fl.vacuum(b))
    back, _ = fl.weyl_apply(-alpha, out)
    assert routes == ["_displace_support", "_displace_grid"]
    assert (back - fl.vacuum(b)).norm() <= 2 * sqrt(pdtrc(b.n_max, n)) + 1e-12


@pytest.mark.parametrize("d,n_max", [(1, 12), (2, 6), (3, 4)])
def test_weyl_dense_input_is_the_sum_of_its_basis_states(d, n_max, rng, monkeypatch):
    # a dense input takes the grid passes and each basis state the closed
    # form; by linearity the two must agree
    routes = _spy_routes(monkeypatch)
    b = fl.enumerate_basis(d, fl.truncated(n_max))
    alpha = 1.1 * random_unit(d, rng)
    v = random_fock(b, rng)
    got, _ = fl.weyl_apply(alpha, v)
    want = sum(c * fl.weyl_apply(alpha, fl.basis_state(b, tuple(o)))[0].coeffs
               for c, o in zip(v.coeffs, b.occs))
    assert routes == ["_displace_grid"] + ["_displace_support"] * b.dim
    assert np.max(np.abs(got.coeffs - want)) < 1e-12


@pytest.mark.parametrize("d,zero", [(4, [1]), (5, [0, 3])])
def test_weyl_grid_keeps_undisplaced_modes(d, zero, rng, monkeypatch):
    # the grid passes over the displaced modes only; the others stay in
    # the columns of its intermediate until the final gather
    routes = _spy_routes(monkeypatch)
    b = fl.enumerate_basis(d, fl.truncated(3))
    alpha = 1.1 * random_unit(d, rng)
    alpha[zero] = 0.0
    v = random_fock(b, rng)
    got, _ = fl.weyl_apply(alpha, v)
    want = sum(c * fl.weyl_apply(alpha, fl.basis_state(b, tuple(o)))[0].coeffs
               for c, o in zip(v.coeffs, b.occs))
    assert routes == ["_displace_grid"] + ["_displace_support"] * b.dim
    assert np.max(np.abs(got.coeffs - want)) < 1e-12


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, -np.inf, 1e160])
def test_weyl_headroom_rejects_invalid_norm(bad):
    with pytest.raises(ValueError, match="alpha_norm must be finite and >= 0"):
        fl.weyl_headroom(bad)


@pytest.mark.parametrize("bad", [np.nan, -np.inf, complex(np.inf, 0)])
def test_weyl_rejects_non_finite_alpha(bad):
    b = fl.enumerate_basis(2, fl.truncated(4))
    with pytest.raises(ValueError, match="alpha must be finite"):
        fl.weyl_apply(np.array([bad, 0.0]), fl.vacuum(b))


@pytest.mark.parametrize("entry", ["field_apply", "field_matrix", "weyl_apply"])
def test_every_mode_vector_check_refuses_the_same_vectors(entry):
    b = fl.enumerate_basis(2, fl.truncated(3))

    def call(x):
        if entry == "field_apply":
            fl.field_apply("annihilate", x, fl.vacuum(b))
        elif entry == "field_matrix":
            fl.field_matrix("create", x, b)
        else:
            fl.weyl_apply(x, fl.vacuum(b))

    call([0.5, 0.25j])
    for bad, why in (([np.nan, 0.0], "must be finite"), ([0.0, -np.inf], "must be finite"),
                     ([complex(0, np.inf), 1.0], "must be finite"),
                     ([0.5], "must have length d=2"), ([0.5, 0.0, 0.0], "must have length d=2"),
                     ([[0.5, 0.0]], "must have length d=2")):
        with pytest.raises(ValueError, match=why):
            call(bad)


@pytest.mark.parametrize("entry", ["weyl_apply", "sector_project", "coherent_state",
                                   "fluctuation_apply"])
def test_every_truncated_only_operation_refuses_a_fixed_basis(entry):
    b = fl.enumerate_basis(2, fl.fixed(2))
    v, phi = fl.basis_state(b, (2, 0)), np.array([1.0, 0.0])
    with pytest.raises(fl.SectorError, match="needs a truncated basis$"):
        if entry == "weyl_apply":
            fl.weyl_apply(phi, v)
        elif entry == "sector_project":
            fl.sector_project(2, v)
        elif entry == "coherent_state":
            fl.coherent_state(phi, 2, b)
        else:
            fl.fluctuation_apply(2, fl.evolve_hartree(fl.ModeSystem.lattice(2), phi, [0.0]),
                                 v, 0.0)


def test_weyl_builds_no_field_matrix(monkeypatch, rng):
    # the displacement is applied mode by mode; a field_matrix call would
    # bring back the per-call sparse assembly it replaced
    from focklab import fock

    def refuse(*args, **kwargs):
        raise AssertionError("weyl_apply called field_matrix")

    monkeypatch.setattr(fock, "field_matrix", refuse)
    b = fl.enumerate_basis(2, fl.truncated(8))
    out, loss = fl.weyl_apply(0.7 * random_unit(2, rng), random_fock(b, rng))
    assert abs(out.norm() ** 2 + loss - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# sector projection


def test_project_vacuum():
    b = fl.enumerate_basis(1, fl.truncated(3))
    v = fl.vacuum(b)
    assert (fl.sector_project(0, v) - v).norm() == 0.0


def test_project_coherent_component():
    b = fl.enumerate_basis(1, fl.truncated(fl.weyl_headroom(1.0)))
    out, _ = fl.weyl_apply(np.array([1.0 + 0j]), fl.vacuum(b))
    p2 = fl.sector_project(2, out)
    nonzero = np.flatnonzero(np.abs(p2.coeffs) > 1e-15)
    assert list(nonzero) == [b.index_of((2,))]
    assert p2.coeffs[b.index_of((2,))] == pytest.approx(np.exp(-0.5) / sqrt(2))


def test_projectors_are_orthogonal_and_idempotent(rng):
    b = fl.enumerate_basis(2, fl.truncated(4))
    v = random_fock(b, rng)
    p2 = fl.sector_project(2, v)
    assert (fl.sector_project(2, p2) - p2).norm() == 0.0
    assert fl.sector_project(1, p2).norm() == 0.0


def test_project_beyond_truncation_raises():
    b = fl.enumerate_basis(2, fl.truncated(3))
    with pytest.raises(fl.SectorError):
        fl.sector_project(4, fl.vacuum(b))


# ---------------------------------------------------------------------------
# CCR property and JSON dumps


@given(data=st.data())
@settings(deadline=None, max_examples=25)
def test_ccr_inside_truncation(data):
    d = data.draw(st.integers(2, 4))
    p = data.draw(st.integers(0, d - 1))
    q = data.draw(st.integers(0, d - 1))
    seed = data.draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    b = fl.enumerate_basis(d, fl.truncated(5))
    v = random_fock(b, rng)
    interior = v.coeffs.copy()
    interior[b.totals > 3] = 0.0
    nrm = np.linalg.norm(interior)
    if nrm == 0:
        return
    v = fl.FockVector(b, interior / nrm)
    lhs = fl.ladder_apply("annihilate", p, fl.ladder_apply("create", q, v))
    rhs = fl.ladder_apply("create", q, fl.ladder_apply("annihilate", p, v))
    resid = lhs.coeffs - rhs.coeffs - (1.0 if p == q else 0.0) * v.coeffs
    resid[b.totals > 3] = 0.0
    assert np.max(np.abs(resid)) < 1e-12


def test_json_dump_layouts(tmp_path):
    b = fl.enumerate_basis(2, fl.fixed(1))
    doc = fl.dump_basis_json(b, tmp_path / "basis.json")
    assert doc["d"] == 2 and doc["sector"] == {"kind": "fixed", "n": 1}
    assert doc["states"] == [[1, 0], [0, 1]]
    v = fl.FockVector(b, np.array([0.5 + 0.5j, 0.0]))
    vdoc = fl.dump_vector_json(v)
    assert vdoc["coeffs"] == [[0.5, 0.5], [0.0, 0.0]]
    op = fl.number_operator(b)
    odoc = fl.dump_operator_json(op, tmp_path / "op.json")
    assert odoc["hermitian"] is True
    assert all(len(e) == 3 and len(e[2]) == 2 for e in odoc["entries"])
    assert (tmp_path / "basis.json").exists() and (tmp_path / "op.json").exists()
