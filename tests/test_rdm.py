"""Transition matrices, reduced density matrices, distances, mixtures."""

from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import focklab as fl
from focklab.fock import rank
from focklab.states import _tensor_from_fixed

from conftest import random_fock, random_hermitian, random_unit


def _rdm_tensor_oracle(v):
    """Contract the explicit n-particle tensor over all but the first slot."""
    n = v.basis.sector[1]
    d = v.basis.d
    T = np.asarray(_tensor_from_fixed(v)).reshape(d, d ** (n - 1))
    return T @ T.conj().T  # trace-one kernel rho(x; y)


# ---------------------------------------------------------------------------
# transition matrices


def test_vacuum_transition_is_zero():
    b = fl.enumerate_basis(3, fl.fixed(0))
    assert np.all(fl.transition_matrix(fl.vacuum(b)) == 0)
    tb = fl.enumerate_basis(2, fl.truncated(3))
    assert np.max(np.abs(fl.transition_matrix(fl.vacuum(tb)))) == 0.0


def _ladder_transition(v):
    """T = W^H W with the columns a_p v taken from the sparse ladder matrices."""
    d = v.basis.d
    if v.basis.sector == ("fixed", 0):
        return np.zeros((d, d), dtype=complex)
    W = np.stack([fl.ladder_matrix("annihilate", p, v.basis)[0] @ v.coeffs
                  for p in range(d)], axis=1)
    return W.conj().T @ W


def _scatter_transition(v):
    """T = W^H W with W written from the occupations: each state o with
    o_p > 0 sends sqrt(o_p) v(o) to the rank of o - e_p in the lowered basis."""
    basis, d = v.basis, v.basis.d
    out = basis if basis.sector[0] == "truncated" else fl.enumerate_basis(
        d, fl.fixed(basis.n_max - 1))
    W = np.zeros((out.dim, d), dtype=complex)
    for p in range(d):
        src = np.flatnonzero(basis.occs[:, p])
        lowered = basis.occs[src]
        lowered[:, p] -= 1
        W[rank(out, lowered), p] = np.sqrt(basis.occs[src, p]) * v.coeffs[src] + 0
    return W.conj().T @ W


@pytest.mark.parametrize("d, sector", [(3, fl.truncated(29)), (4, fl.fixed(18)),
                                       (4, fl.truncated(9)), (2, fl.truncated(20)),
                                       (3, fl.truncated(8))])
def test_transition_matrix_equals_the_occupation_scatter_bitwise(d, sector, rng):
    # a complex vector, and a real one with negative entries and zeros of
    # both signs, whose conjugates put signed zeros into W^H
    basis = fl.enumerate_basis(d, sector)
    real = rng.standard_normal(basis.dim)
    zero = rng.random(basis.dim) < 0.3
    real[zero] = rng.choice([0.0, -0.0], zero.sum())
    for v in (random_fock(basis, rng), fl.FockVector(basis, real)):
        assert fl.transition_matrix(v).tobytes() == _scatter_transition(v).tobytes()


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 4), kind=st.sampled_from(["fixed", "truncated"]),
       n=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_transition_matrix_equals_ladder_route_bytewise(d, kind, n, seed):
    # signed zeros on every state occupying some modes, so that whole columns
    # a_p v vanish and the sign of a zero can reach T
    rng = np.random.default_rng(seed)
    basis = fl.enumerate_basis(d, fl.fixed(n) if kind == "fixed" else fl.truncated(n))
    v = random_fock(basis, rng)
    gone = np.any(basis.occs[:, rng.random(d) < 0.5] > 0, axis=1)
    v.coeffs.real[gone] = rng.choice([0.0, -0.0], gone.sum())
    v.coeffs.imag[gone] = rng.choice([0.0, -0.0], gone.sum())
    assert fl.transition_matrix(v).tobytes() == _ladder_transition(v).tobytes()


def test_product_transition_rank_one(rng):
    n, d = 5, 3
    phi = random_unit(d, rng)
    v = fl.product_state(phi, n, fl.enumerate_basis(d, fl.fixed(n)))
    T = fl.transition_matrix(v)
    want = n * np.outer(np.conj(phi), phi)
    assert np.max(np.abs(T - want)) < 1e-10
    assert np.trace(T).real == pytest.approx(n, abs=1e-10)


def test_coherent_transition_rank_one(rng):
    n = 4
    phi = random_unit(2, rng)
    b = fl.enumerate_basis(2, fl.truncated(40))
    T = fl.transition_matrix(fl.coherent_state(phi, n, b))
    assert np.max(np.abs(T - n * np.outer(np.conj(phi), phi))) < 1e-7


def test_transition_trace_equals_mean_number(rng):
    b = fl.enumerate_basis(2, fl.truncated(8))
    v = random_fock(b, rng)
    T = fl.transition_matrix(v)
    N = fl.number_operator(b)
    assert np.trace(T).real == pytest.approx(N.expectation(v), abs=1e-10)
    assert np.max(np.abs(T - T.conj().T)) < 1e-12


# ---------------------------------------------------------------------------
# reduced density matrices


def test_product_rdm_is_projector(rng):
    phi = random_unit(3, rng)
    v = fl.product_state(phi, 4, fl.enumerate_basis(3, fl.fixed(4)))
    rho = fl.reduced_dm(v)
    assert np.max(np.abs(rho.rho - np.outer(phi, phi.conj()))) < 1e-12
    assert rho.trace_raw == pytest.approx(4.0, abs=1e-10)


def test_rdm_matches_tensor_contraction_oracle(rng):
    for d, n in [(2, 4), (3, 3)]:
        b = fl.enumerate_basis(d, fl.fixed(n))
        v = random_fock(b, rng)
        rho = fl.reduced_dm(v)
        assert np.max(np.abs(rho.rho - _rdm_tensor_oracle(v))) < 1e-12


def test_theta_rdm_decomposition_against_oracle(rng):
    # ((n-m) |phi><phi| + gamma)/n with trace(gamma) = m and gamma phi = 0
    n, m, d = 6, 2, 3
    phi = random_unit(d, rng)
    exc = fl.random_excitation(phi, m, seed=3)
    th = fl.theta_state(phi, exc, n, "creation_polynomial",
                        fl.enumerate_basis(d, fl.fixed(n)))
    rho = fl.reduced_dm(th)
    assert np.max(np.abs(rho.rho - _rdm_tensor_oracle(th))) < 1e-12
    gamma = n * rho.rho - (n - m) * np.outer(phi, phi.conj())
    assert np.trace(gamma).real == pytest.approx(m, abs=1e-10)
    assert np.linalg.norm(gamma @ phi) < 1e-10
    evals = np.linalg.eigvalsh(gamma)
    assert evals.min() > -1e-10


def test_theta_rdm_distance_at_time_zero(rng):
    for n, m in [(4, 1), (8, 1), (6, 2)]:
        phi = random_unit(2, rng)
        exc = fl.random_excitation(phi, m, seed=n)
        th = fl.theta_state(phi, exc, n, "creation_polynomial",
                            fl.enumerate_basis(2, fl.fixed(n)))
        td = fl.distance(fl.reduced_dm(th), fl.projector(phi), "trace")
        assert td <= 2 * m / n + 1e-9
        assert td >= m / n


def test_coherent_rdm_is_projector(rng):
    phi = random_unit(2, rng)
    b = fl.enumerate_basis(2, fl.truncated(40))
    rho = fl.reduced_dm(fl.coherent_state(phi, 4, b))
    assert np.max(np.abs(rho.rho - np.outer(phi, phi.conj()))) < 1e-7


def test_rdm_vacuum_rejected():
    b = fl.enumerate_basis(2, fl.truncated(3))
    with pytest.raises(ValueError):
        fl.reduced_dm(fl.vacuum(b))


def test_rdm_psd_and_trace_after_evolution(rng):
    ms = fl.ModeSystem.dense(random_hermitian(2, rng), np.eye(2))
    b = fl.enumerate_basis(2, fl.fixed(6))
    plan = fl.make_plan(fl.build_hamiltonian(ms, 6, b))
    v = random_fock(b, rng)
    for t in (0.0, 0.7, 1.9):
        rho = fl.reduced_dm(fl.evolve_fock(plan, v, t))
        assert np.trace(rho.rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rho.rho).min() > -1e-10


def test_transition_deviation_equals_scaled_hs_distance(rng):
    # || T - n conj(phi) phi^T ||_F = n * hs-distance(rdm, projector), exactly
    n = 5
    phi = random_unit(2, rng)
    b = fl.enumerate_basis(2, fl.fixed(n))
    v = random_fock(b, rng)
    T = fl.transition_matrix(v)
    lhs = np.linalg.norm(T - n * np.outer(np.conj(phi), phi))
    rho = fl.reduced_dm(v)
    rhs = n * fl.distance(rho, fl.projector(phi), "hilbert_schmidt")
    assert lhs == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------------------
# distances


def test_distance_identical_inputs_zero(rng):
    rho = fl.projector(random_unit(3, rng))
    for norm in ("trace", "hilbert_schmidt", "operator"):
        assert fl.distance(rho, rho, norm) == pytest.approx(0.0, abs=1e-15)


def test_distance_orthogonal_projectors():
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    r0, r1 = fl.projector(e0), fl.projector(e1)
    assert fl.distance(r0, r1, "trace") == pytest.approx(2.0)
    assert fl.distance(r0, r1, "hilbert_schmidt") == pytest.approx(sqrt(2))
    assert fl.distance(r0, r1, "operator") == pytest.approx(1.0)


def test_distance_rejects_a_non_hermitian_array():
    # eigvalsh reads one triangle: [[1, 5], [0, 0]] used to measure 1.0, as
    # [[1, 0], [0, 0]] does, and its transpose 10.05
    bad, zero = np.array([[1.0, 5.0], [0.0, 0.0]]), np.zeros((2, 2))
    for args in ((bad, zero), (zero, bad), (bad.T, zero)):
        with pytest.raises(ValueError, match="not Hermitian"):
            fl.distance(*args, "trace")
    near = np.array([[1.0, 1e-13], [0.0, 0.0]])  # within HERMITICITY_TOL
    assert fl.distance(near, zero, "operator") == pytest.approx(1.0)
    assert fl.distance(np.diag([1.0, 0.0]), fl.projector(np.array([0.0, 1.0])),
                       "trace") == pytest.approx(2.0)


def test_norm_ordering_random(rng):
    for _ in range(25):
        d = int(rng.integers(2, 6))
        w = rng.random(d)
        rho1 = fl.mixed_target(w / w.sum(), [random_unit(d, rng) for _ in range(d)])
        rho2 = fl.projector(random_unit(d, rng))
        od = fl.distance(rho1, rho2, "operator")
        hd = fl.distance(rho1, rho2, "hilbert_schmidt")
        td = fl.distance(rho1, rho2, "trace")
        assert od <= hd * (1 + 1e-12) <= td * (1 + 1e-12)
        assert td <= 2 * hd * (1 + 1e-12)  # rank-one comparison


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        fl.distance(np.eye(2) / 2, np.eye(3) / 3, "trace")


# ---------------------------------------------------------------------------
# mixtures and export


def test_single_weight_mixture_is_projector(rng):
    phi = random_unit(2, rng)
    rho = fl.mixed_target([1.0], [phi])
    assert np.max(np.abs(rho.rho - np.outer(phi, phi.conj()))) < 1e-14


def test_orthogonal_half_half_mixture():
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    rho = fl.mixed_target([0.5, 0.5], [e0, e1])
    assert np.allclose(rho.rho, np.eye(2) / 2)


def test_weights_from_l2_normalized_coefficients():
    alpha = np.array([2.0, 1.0]) / sqrt(5)
    weights = np.abs(alpha) ** 2
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    rho = fl.mixed_target(weights, [e0, e1])
    assert rho.rho[0, 0].real == pytest.approx(4 / 5)
    assert rho.rho[1, 1].real == pytest.approx(1 / 5)


def test_mixture_weight_validation():
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    with pytest.raises(ValueError):
        fl.mixed_target([0.7, 0.4], [e0, e1])


def test_dm_json_packing(tmp_path, rng):
    phi = random_unit(3, rng)
    rho = fl.projector(phi)
    doc = rho.to_json(tmp_path / "dm.json")
    assert len(doc["diag"]) == 3
    assert len(doc["upper"]) == 3  # d(d-1)/2 pairs
    assert doc["trace_raw"] == 1.0
    assert sum(doc["diag"]) == pytest.approx(1.0)
    assert (tmp_path / "dm.json").exists()


def test_dm_psd_floor_enforced():
    bad = np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex)
    with pytest.raises(ValueError):
        fl.OneParticleDM(rho=bad, trace_raw=1.0)
