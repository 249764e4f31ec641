"""Initial-state families and the Gram machinery of their superpositions."""

from math import exp, fsum, sqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import focklab as fl
from focklab.states import _combine_components, component_states

from conftest import random_unit


def _fixed(d, n):
    return fl.enumerate_basis(d, fl.fixed(n))


# ---------------------------------------------------------------------------
# product states


def test_single_mode_product_is_number_state():
    for n in (0, 1, 5):
        v = fl.product_state(np.array([1.0 + 0j]), n, _fixed(1, n))
        assert v.coeffs[0] == pytest.approx(1.0)


def test_aligned_product_is_basis_vector():
    v = fl.product_state(np.array([1.0, 0.0], dtype=complex), 3, _fixed(2, 3))
    assert v.coeffs[v.basis.index_of((3, 0))] == pytest.approx(1.0)
    assert v.norm() == pytest.approx(1.0)


def test_balanced_product_multinomial_amplitudes():
    phi = np.array([1.0, 1.0]) / sqrt(2)
    v = fl.product_state(phi, 2, _fixed(2, 2))
    b = v.basis
    assert v.coeffs[b.index_of((2, 0))] == pytest.approx(0.5)
    assert v.coeffs[b.index_of((1, 1))] == pytest.approx(sqrt(2) / 2)
    assert v.coeffs[b.index_of((0, 2))] == pytest.approx(0.5)


def test_product_norm_random(rng):
    for d, n in [(3, 4), (4, 3)]:
        v = fl.product_state(random_unit(d, rng), n, _fixed(d, n))
        assert v.norm() == pytest.approx(1.0, abs=1e-12)


def test_product_rejects_unnormalized():
    with pytest.raises(ValueError):
        fl.product_state(np.array([1.0, 1.0]), 2, _fixed(2, 2))


# ---------------------------------------------------------------------------
# coherent states


def test_coherent_zero_is_vacuum():
    b = fl.enumerate_basis(2, fl.truncated(20))
    v = fl.coherent_state(np.array([1.0, 0.0], dtype=complex), 0, b)
    assert (v - fl.vacuum(b)).norm() == 0.0


def test_coherent_poisson_sector_weights():
    n = 4
    b = fl.enumerate_basis(1, fl.truncated(fl.weyl_headroom(2.0)))
    v = fl.coherent_state(np.array([1.0 + 0j]), n, b)
    weights = v.sector_norms() ** 2
    from math import factorial

    for k in range(12):
        poisson = exp(-n) * n**k / factorial(k)
        assert weights[k] == pytest.approx(poisson, abs=1e-12)


def test_coherent_projects_to_product(rng):
    n = 4
    phi = random_unit(2, rng)
    b = fl.enumerate_basis(2, fl.truncated(40))
    coh = fl.coherent_state(phi, n, b)
    proj = fl.sector_project(n, coh)
    scaled = exp(fl.log_dnm(n, 0)) * proj.coeffs[b.sector_slice(n)]
    want = fl.product_state(phi, n, _fixed(2, n))
    assert np.linalg.norm(scaled - want.coeffs) < 1e-8


def test_coherent_needs_headroom():
    b = fl.enumerate_basis(2, fl.truncated(10))
    with pytest.raises(fl.SectorError):
        fl.coherent_state(np.array([1.0, 0.0], dtype=complex), 9, b)


# ---------------------------------------------------------------------------
# excitations


def test_unique_excitation_for_two_modes():
    phi = np.array([1.0, 0.0], dtype=complex)
    exc = fl.random_excitation(phi, 2, _fixed(2, 2), seed=123)
    assert exc.psi.coeffs[exc.psi.basis.index_of((0, 2))] == pytest.approx(1.0)


def test_excitation_reproducible_per_seed(rng):
    phi = random_unit(3, rng)
    a = fl.random_excitation(phi, 1, _fixed(3, 1), seed=42)
    b = fl.random_excitation(phi, 1, _fixed(3, 1), seed=42)
    c = fl.random_excitation(phi, 1, _fixed(3, 1), seed=43)
    assert np.array_equal(a.psi.coeffs, b.psi.coeffs)
    assert not np.allclose(a.psi.coeffs, c.psi.coeffs)


def test_excitation_orthogonality_sweep(rng):
    for trial in range(50):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        phi = random_unit(d, rng)
        exc = fl.random_excitation(phi, m, _fixed(d, m), seed=trial)
        defect = fl.field_apply("annihilate", np.conj(phi), exc.psi).norm()
        assert defect < 1e-12


def test_excitation_needs_two_modes():
    with pytest.raises(ValueError):
        fl.random_excitation(np.array([1.0 + 0j]), 1, _fixed(1, 1), seed=0)


# ---------------------------------------------------------------------------
# partially factorized states


def test_theta_m0_equals_product_for_every_method(rng):
    phi = random_unit(2, rng)
    want = fl.product_state(phi, 4, _fixed(2, 4))
    for method in ("symmetrize", "creation_polynomial", "weyl_projection"):
        got = fl.theta_state(phi, None, 4, method, _fixed(2, 4))
        assert (got - want).norm() < 1e-9


def test_theta_two_particle_hand_case():
    phi = np.array([1.0, 0.0], dtype=complex)
    exc = fl.random_excitation(phi, 1, _fixed(2, 1), seed=0)
    # psi_1 is forced to e_1; theta = sqrt(2) S(phi x psi) = |1,1>
    for method in ("symmetrize", "creation_polynomial", "weyl_projection"):
        th = fl.theta_state(phi, exc, 2, method, _fixed(2, 2))
        assert abs(th.coeffs[th.basis.index_of((1, 1))]) == pytest.approx(1.0, abs=1e-9)


def test_theta_methods_agree_random(rng):
    phi = random_unit(3, rng)
    exc = fl.random_excitation(phi, 2, _fixed(3, 2), seed=5)
    b = _fixed(3, 6)
    t1 = fl.theta_state(phi, exc, 6, "symmetrize", b)
    t2 = fl.theta_state(phi, exc, 6, "creation_polynomial", b)
    t3 = fl.theta_state(phi, exc, 6, "weyl_projection", b)
    assert (t1 - t2).norm() < 1e-8
    assert (t2 - t3).norm() < 1e-8
    assert (t1 - t3).norm() < 1e-8
    assert t1.norm() == pytest.approx(1.0, abs=1e-9)


def test_theta_rejects_oversized_excitation(rng):
    phi = random_unit(2, rng)
    exc = fl.random_excitation(phi, 3, _fixed(2, 3), seed=1)
    with pytest.raises(ValueError):
        fl.theta_state(phi, exc, 2, "creation_polynomial", _fixed(2, 2))


def test_theta_rejects_nonorthogonal_excitation(rng):
    phi = random_unit(2, rng)
    exc = fl.random_excitation(phi, 1, _fixed(2, 1), seed=3)
    other = random_unit(2, rng)  # excitation built for phi, used with other
    with pytest.raises(ValueError):
        fl.theta_state(other, exc, 3, "creation_polynomial", _fixed(2, 3))


def test_theta_into_truncated_basis(rng):
    phi = random_unit(2, rng)
    exc = fl.random_excitation(phi, 1, _fixed(2, 1), seed=2)
    tb = fl.enumerate_basis(2, fl.truncated(10))
    th = fl.theta_state(phi, exc, 4, "creation_polynomial", tb)
    assert th.sector_norms()[4] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# overlaps


def test_product_overlap_identical_is_one(rng):
    phi = random_unit(2, rng)
    assert fl.gram_overlap("product", phi, phi, 17) == pytest.approx(1.0)


def test_product_overlap_power():
    phi1 = np.array([1.0, 0.0], dtype=complex)
    phi2 = np.array([0.9, sqrt(1 - 0.81)], dtype=complex)
    got = fl.gram_overlap("product", phi1, phi2, 20)
    assert got == pytest.approx(0.9**20, abs=1e-12)


def test_theta_overlap_respects_factorial_bound(rng):
    n, m = 8, 1
    phi1 = random_unit(2, rng)
    phi2 = random_unit(2, rng)
    e1 = fl.random_excitation(phi1, m, _fixed(2, m), seed=0)
    e2 = fl.random_excitation(phi2, m, _fixed(2, m), seed=1)
    g = fl.gram_overlap("theta", (phi1, e1), (phi2, e2), n)
    base = abs(np.vdot(phi1, phi2))
    bound = (m + 1) * 1.0 * n**m * base ** (n - 2 * m)
    assert abs(g) <= bound * (1 + 1e-9)


def test_coherent_overlap_closed_form_vs_numeric(rng):
    n = 4
    phi1 = np.array([1.0, 0.0], dtype=complex)
    phi2 = np.array([0.5, sqrt(3) / 2], dtype=complex)  # |phi2-phi1|^2 = 1
    g = fl.gram_overlap("coherent", phi1, phi2, n)
    assert abs(g) == pytest.approx(exp(-n / 2.0), abs=1e-12)
    tb = fl.enumerate_basis(2, fl.truncated(40))
    num = fl.coherent_state(phi1, n, tb).inner(fl.coherent_state(phi2, n, tb))
    assert g == pytest.approx(num, abs=1e-7)


def test_coherent_overlap_phase(rng):
    # complex overlap picks up the e^{i n Im<phi_i,phi_j>} twist
    phi1 = random_unit(2, rng)
    phi2 = random_unit(2, rng)
    n = 3
    tb = fl.enumerate_basis(2, fl.truncated(36))
    num = fl.coherent_state(phi1, n, tb).inner(fl.coherent_state(phi2, n, tb))
    assert fl.gram_overlap("coherent", phi1, phi2, n) == pytest.approx(num, abs=1e-7)


# ---------------------------------------------------------------------------
# superpositions


def test_single_component_superposition(rng):
    phi = random_unit(2, rng)
    spec = fl.SuperpositionSpec(kind="product", coeffs=[1.0], phis=[phi])
    state, coeffs_n = fl.superposition(spec, 4, _fixed(2, 4))
    assert coeffs_n[0] == pytest.approx(1.0)
    assert (state - fl.product_state(phi, 4, _fixed(2, 4))).norm() < 1e-12


def test_orthogonal_components_keep_raw_coefficients():
    phi1 = np.array([1.0, 0.0], dtype=complex)
    phi2 = np.array([0.0, 1.0], dtype=complex)
    c = np.array([1.0, 1.0]) / sqrt(2)
    spec = fl.SuperpositionSpec(kind="product", coeffs=c, phis=[phi1, phi2])
    state, coeffs_n = fl.superposition(spec, 5, _fixed(2, 5))
    assert np.allclose(coeffs_n, c, atol=1e-12)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_coherent_superposition_cross_gram():
    phi1 = np.array([1.0, 0.0], dtype=complex)
    phi2 = np.array([0.5, sqrt(3) / 2], dtype=complex)
    n = 4
    c = np.array([1.0, 1.0]) / sqrt(2)
    spec = fl.SuperpositionSpec(kind="coherent", coeffs=c, phis=[phi1, phi2])
    tb = fl.enumerate_basis(2, fl.truncated(40))
    state, coeffs_n = fl.superposition(spec, n, tb)
    assert state.norm() == pytest.approx(1.0, abs=1e-9)
    comps = component_states(spec, n, tb)
    assert abs(comps[0].inner(comps[1])) == pytest.approx(exp(-2.0), abs=1e-7)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["product", "coherent"]), d=st.integers(2, 4),
       n=st.integers(1, 8), k=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
def test_combined_gram_matches_closed_form(kind, d, n, k, seed):
    # the Gram the sweep normalizes with, taken from the member vectors on the
    # sweep's own basis, against the closed-form overlaps
    rng = np.random.default_rng(seed)
    phis = [random_unit(d, rng) for _ in range(k)]
    want = np.array([[fl.gram_overlap(kind, a, b, n) for b in phis] for a in phis])
    assume(np.min(np.linalg.eigvalsh(want)) > 1e-6)
    sector = fl.truncated(fl.weyl_headroom(sqrt(n))) if kind == "coherent" else fl.fixed(n)
    spec = fl.SuperpositionSpec(kind=kind, phis=phis,
                                coeffs=rng.standard_normal(k) + 1j * rng.standard_normal(k))
    members = component_states(spec, n, fl.enumerate_basis(d, sector))
    state, _coeffs_n, gram = _combine_components(spec.coeffs, members)
    assert np.max(np.abs(gram - want)) <= 1e-12
    # summed exactly: a BLAS norm over ~2.5e5 amplitudes drifts by ~3e-14
    assert abs(sqrt(fsum(np.abs(state.coeffs) ** 2)) - 1.0) <= 1e-14


def test_superposition_norm_is_one_theta(rng):
    phi1 = np.array([1.0, 0.0, 0.0], dtype=complex)
    phi2 = np.array([0.0, 1.0, 0.0], dtype=complex)
    e1 = fl.random_excitation(phi1, 1, _fixed(3, 1), seed=0)
    e2 = fl.random_excitation(phi2, 1, _fixed(3, 1), seed=1)
    spec = fl.SuperpositionSpec(
        kind="theta", coeffs=[0.8, 0.6], phis=[phi1, phi2], excitations=[e1, e2]
    )
    state, coeffs_n = fl.superposition(spec, 8, _fixed(3, 8))
    assert state.norm() == pytest.approx(1.0, abs=1e-9)


def test_superposition_degenerate_components_rejected():
    phi = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError):
        fl.SuperpositionSpec(kind="product", coeffs=[1.0, 1.0], phis=[phi, phi])
    near = np.array([1.0, 1e-14], dtype=complex)
    near /= np.linalg.norm(near)
    with pytest.raises((fl.DegeneracyError, ValueError)):
        spec = fl.SuperpositionSpec(kind="coherent", coeffs=[1.0, 1.0], phis=[phi, near])
        fl.superposition(spec, 2, fl.enumerate_basis(2, fl.truncated(28)))


def test_theta_schedule_must_be_nondecreasing(rng):
    phi1 = np.array([1.0, 0.0, 0.0], dtype=complex)
    phi2 = np.array([0.0, 1.0, 0.0], dtype=complex)
    e1 = fl.random_excitation(phi1, 2, _fixed(3, 2), seed=0)
    e2 = fl.random_excitation(phi2, 1, _fixed(3, 1), seed=1)
    with pytest.raises(ValueError):
        fl.SuperpositionSpec(
            kind="theta", coeffs=[1.0, 1.0], phis=[phi1, phi2], excitations=[e1, e2]
        )


def test_theta_superposition_rejects_inadmissible_m(rng):
    phi1 = np.array([1.0, 0.0, 0.0], dtype=complex)
    phi2 = np.array([0.0, 1.0, 0.0], dtype=complex)
    e1 = fl.random_excitation(phi1, 2, _fixed(3, 2), seed=0)
    e2 = fl.random_excitation(phi2, 2, _fixed(3, 2), seed=1)
    spec = fl.SuperpositionSpec(
        kind="theta", coeffs=[1.0, 1.0], phis=[phi1, phi2], excitations=[e1, e2]
    )
    # admissible_m(4) = 1 < 2
    with pytest.raises(ValueError):
        fl.superposition(spec, 4, _fixed(3, 4))


def test_gram_converges_to_identity_with_n(rng):
    # off-diagonals decay: product as overlap^n, coherent as e^{-n/2}
    phi1 = np.array([1.0, 0.0], dtype=complex)
    phi2 = np.array([0.5, sqrt(3) / 2], dtype=complex)
    prev_prod, prev_coh = 1.0, 1.0
    for n in (8, 16, 32):
        g_prod = abs(fl.gram_overlap("product", phi1, phi2, n))
        g_coh = abs(fl.gram_overlap("coherent", phi1, phi2, n))
        assert g_prod == pytest.approx(0.5**n, rel=1e-12)
        assert g_coh == pytest.approx(exp(-n / 2), rel=1e-12)
        assert g_prod < prev_prod and g_coh < prev_coh
        prev_prod, prev_coh = g_prod, g_coh


def test_theta_gram_below_factorial_bound_as_n_grows(rng):
    phi1 = np.array([1.0, 0.0], dtype=complex)
    phi2 = np.array([0.6, 0.8], dtype=complex)
    e1 = fl.random_excitation(phi1, 1, _fixed(2, 1), seed=0)
    e2 = fl.random_excitation(phi2, 1, _fixed(2, 1), seed=1)
    for n in (8, 16, 32):
        g = abs(fl.gram_overlap("theta", (phi1, e1), (phi2, e2), n))
        bound = 2.0 * n * 0.6 ** (n - 2)
        assert g <= bound * (1 + 1e-9)


def test_normalized_coefficients_uniformly_bounded(rng):
    phi1 = np.array([1.0, 0.0], dtype=complex)
    phi2 = np.array([0.5, sqrt(3) / 2], dtype=complex)
    c = np.array([0.9, 0.45])
    spec = fl.SuperpositionSpec(kind="product", coeffs=c, phis=[phi1, phi2])
    limit = c / np.linalg.norm(c)
    for n in (8, 16, 32):
        _state, coeffs_n = fl.superposition(spec, n, _fixed(2, n))
        assert np.all(np.abs(coeffs_n) <= 1.5 * np.abs(c) / np.linalg.norm(c) + 1e-9)
    # and they converge to the l2-normalized raw coefficients
    assert np.allclose(np.abs(coeffs_n), limit, atol=1e-6)
