"""Exact propagation, its norm contract, fluctuation-frame propagator."""

from math import sqrt

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import focklab as fl
from focklab.dynamics import _bessel_series

from conftest import random_fock, random_hermitian, random_unit


def _contact_ms(d, g=1.0, hopping=1.0):
    h = np.zeros((d, d), dtype=complex)
    for p in range(d):
        h[p, (p + 1) % d] -= hopping
        h[p, (p - 1) % d] -= hopping
    return fl.ModeSystem.dense((h + h.conj().T) / 2, g * np.eye(d))


# ---------------------------------------------------------------------------
# evolve_fock


def test_time_zero_is_identity(rng):
    # no t == 0 branch: the series is J_0(0) = 1 times a unit phase, and the
    # norm check still runs
    phi = random_unit(3, rng)
    exc = fl.states.random_excitation(phi, 1, seed=3)
    for sector in (fl.fixed(4), fl.truncated(4)):
        b = fl.enumerate_basis(3, sector)
        plan = fl.make_plan(fl.build_hamiltonian(_contact_ms(3), 4, b))
        for v in (random_fock(b, rng), fl.theta_state(phi, exc, 4, "creation_polynomial", b)):
            out = fl.evolve_fock(plan, v, 0.0)
            assert np.array_equal(out.coeffs, v.coeffs) and out.coeffs is not v.coeffs
        v.coeffs[0] = np.nan
        with pytest.raises(fl.KrylovError):
            fl.evolve_fock(plan, v, 0.0)


def test_free_evolution_factorizes(rng):
    h = random_hermitian(2, rng)
    ms = fl.ModeSystem.dense(h, np.zeros((2, 2)))
    n = 5
    b = fl.enumerate_basis(2, fl.fixed(n))
    plan = fl.make_plan(fl.build_hamiltonian(ms, n, b))
    phi = random_unit(2, rng)
    t = 0.8
    got = fl.evolve_fock(plan, fl.product_state(phi, n, b), t)
    phit = sla.expm(-1j * h * t) @ phi
    want = fl.product_state(phit, n, b)
    assert (got - want).norm() < 1e-8


def test_single_mode_diagonal_phase():
    g, n, t = 1.3, 4, 0.9
    ms = fl.ModeSystem.dense(np.zeros((1, 1)), np.array([[g]]))
    b = fl.enumerate_basis(1, fl.fixed(n))
    plan = fl.make_plan(fl.build_hamiltonian(ms, n, b))
    out = fl.evolve_fock(plan, fl.basis_state(b, (n,)), t)
    want = np.exp(-1j * (g / (2 * n)) * n * (n - 1) * t)
    assert out.coeffs[0] == pytest.approx(want, abs=1e-12)


def test_unitarity_and_sector_conservation(rng):
    ms = _contact_ms(2)
    b = fl.enumerate_basis(2, fl.truncated(12))
    plan = fl.make_plan(fl.build_hamiltonian(ms, 4, b))
    v = random_fock(b, rng)
    out = fl.evolve_fock(plan, v, 1.7)
    assert abs(out.norm() - 1.0) < 1e-9
    assert np.max(np.abs(out.sector_norms() - v.sector_norms())) < 1e-9


def test_group_law(rng):
    ms = _contact_ms(3)
    b = fl.enumerate_basis(3, fl.fixed(3))
    plan = fl.make_plan(fl.build_hamiltonian(ms, 3, b))
    v = random_fock(b, rng)
    two_steps = fl.evolve_fock(plan, fl.evolve_fock(plan, v, 0.4), 0.9)
    one_step = fl.evolve_fock(plan, v, 1.3)
    assert (two_steps - one_step).norm() < 1e-8


def test_energy_conserved_under_evolution(rng):
    ms = _contact_ms(2, g=1.5)
    b = fl.enumerate_basis(2, fl.fixed(5))
    H = fl.build_hamiltonian(ms, 5, b)
    plan = fl.make_plan(H)
    v = random_fock(b, rng)
    e0 = H.expectation(v)
    for t in (0.3, 1.1, 2.0):
        et = H.expectation(fl.evolve_fock(plan, v, t))
        assert abs(et - e0) < 1e-8


@pytest.mark.parametrize("sector", [fl.fixed(6), fl.truncated(12)],
                         ids=["fixed", "truncated"])
def test_evolution_matches_dense_expm_oracle(rng, sector):
    ms = _contact_ms(2, g=0.8)
    b = fl.enumerate_basis(2, sector)
    H = fl.build_hamiltonian(ms, 4, b)
    plan = fl.make_plan(H)
    assert plan.method == "krylov" and plan.blocks == []
    v = random_fock(b, rng)
    for t in (0.5, 1.9):
        want = sla.expm(-1j * t * H.matrix.toarray()) @ v.coeffs
        got = fl.evolve_fock(plan, v, t)
        assert np.linalg.norm(got.coeffs - want) < 1e-12


def test_long_time_is_exact_and_draws_no_random_numbers(rng, monkeypatch):
    # the Gershgorin interval of H - D (D: the sector means of H's diagonal)
    # has half-width r of about 80 here, so t r is about 400 and the
    # Chebyshev series runs to a few hundred terms; it must be exact and
    # draw nothing from numpy's global generator
    ms = _contact_ms(2, g=2.0)
    b = fl.enumerate_basis(2, fl.truncated(30))
    H = fl.build_hamiltonian(ms, 2, b)
    plan = fl.make_plan(H)
    dense = H.matrix.toarray()
    totals = b.totals
    sector_mean = np.array([dense.diagonal()[totals == k].real.mean() for k in totals])
    shifted = dense - np.diag(sector_mean)
    centres = shifted.diagonal().real
    radii = np.abs(shifted).sum(axis=1) - np.abs(shifted.diagonal())
    lo, hi = plan.interval
    assert (lo, hi) == pytest.approx((np.min(centres - radii), np.max(centres + radii)))
    v = random_fock(b, rng)
    t = 5.0
    want = np.zeros(b.dim, dtype=complex)
    for nsec in range(31):
        sl = b.sector_slice(nsec)
        vals, vecs = np.linalg.eigh(dense[sl, sl])
        shifted_vals = vals - sector_mean[sl][0]
        assert lo <= shifted_vals.min() and shifted_vals.max() <= hi
        want[sl] = vecs @ (np.exp(-1j * t * vals) * (vecs.conj().T @ v.coeffs[sl]))

    def no_draws(*args, **kwargs):
        raise AssertionError("propagation drew from numpy's global generator")

    monkeypatch.setattr(np.random, "randint", no_draws)
    got = fl.evolve_fock(plan, v, t)
    assert np.linalg.norm(got.coeffs - want) < 1e-11


def test_point_interval_is_the_phase_alone(rng):
    # H = D on one mode: every Gershgorin disc is the point 0, so the series
    # has degree 0 and the propagator is the phase per state
    g, t = 1.3, 0.9
    ms = fl.ModeSystem.dense(np.array([[0.4]]), np.array([[g]]))
    b = fl.enumerate_basis(1, fl.truncated(6))
    H = fl.build_hamiltonian(ms, 3, b)
    plan = fl.make_plan(H)
    assert plan.interval == (0.0, 0.0)
    v = random_fock(b, rng)
    want = np.exp(-1j * t * H.matrix.diagonal()) * v.coeffs
    assert np.linalg.norm(fl.evolve_fock(plan, v, t).coeffs - want) < 1e-14


@pytest.mark.parametrize("tr,degree", [(1.05e-289, 0), (1e-12, 1)])
def test_tiny_times_give_series_of_degree_zero_and_one(rng, tr, degree):
    ms = fl.ModeSystem.lattice(3, potential=("contact", 1.0))
    b = fl.enumerate_basis(3, fl.truncated(4))
    H = fl.build_hamiltonian(ms, 2, b)
    plan = fl.make_plan(H)
    lo, hi = plan.interval
    t = tr / ((hi - lo) / 2)
    assert _bessel_series(t * (hi - lo) / 2).size == degree + 1
    v = random_fock(b, rng)
    got = fl.evolve_fock(plan, v, t)
    assert np.linalg.norm(got.coeffs - _sector_eigh_oracle(H, v, t)) < 1e-14


def test_backward_time_undoes_forward_time(rng):
    ms = fl.ModeSystem.lattice(3, potential=("contact", 1.0))
    b = fl.enumerate_basis(3, fl.truncated(10))
    plan = fl.make_plan(fl.build_hamiltonian(ms, 2, b))
    v = random_fock(b, rng)
    back = fl.evolve_fock(plan, fl.evolve_fock(plan, v, 1.3), -1.3)
    assert np.linalg.norm(back.coeffs - v.coeffs) < 1e-12


def _sector_eigh_oracle(H, v, t):
    """exp(-itH) v by a dense eigendecomposition of each number sector."""
    dense = H.matrix.toarray()
    want = np.zeros(H.basis.dim, dtype=complex)
    for nsec in np.unique(H.basis.totals):
        sl = H.basis.sector_slice(int(nsec))
        vals, vecs = np.linalg.eigh(dense[sl, sl])
        want[sl] = vecs @ (np.exp(-1j * t * vals) * (vecs.conj().T @ v.coeffs[sl]))
    return want


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 3), kind=st.sampled_from([fl.fixed, fl.truncated]),
       cap=st.integers(0, 8), n=st.integers(1, 6), t=st.floats(0.0, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_evolution_matches_sector_eigh_on_random_systems(d, kind, cap, n, t, seed):
    # the per-sector phase must be exact on bases with one or many sectors
    rng = np.random.default_rng(seed)
    v_kernel = rng.standard_normal((d, d))
    ms = fl.ModeSystem.dense(random_hermitian(d, rng), v_kernel + v_kernel.T)
    b = fl.enumerate_basis(d, kind(cap))
    H = fl.build_hamiltonian(ms, n, b)
    v = random_fock(b, rng)
    got = fl.evolve_fock(fl.make_plan(H), v, t)
    assert np.linalg.norm(got.coeffs - _sector_eigh_oracle(H, v, t)) < 1e-11


def test_chained_times_match_one_call(rng):
    ms = fl.ModeSystem.lattice(3, potential=("contact", 1.0))
    b = fl.enumerate_basis(3, fl.truncated(10))
    plan = fl.make_plan(fl.build_hamiltonian(ms, 2, b))
    v = random_fock(b, rng)
    t1, t2 = 0.7, 1.9
    chained = fl.evolve_fock(plan, fl.evolve_fock(plan, v, t1), t2 - t1)
    assert np.linalg.norm(chained.coeffs - fl.evolve_fock(plan, v, t2).coeffs) < 1e-12


def test_norm_defect_beyond_tol_raises(rng):
    ms = _contact_ms(2, g=2.0)
    b = fl.enumerate_basis(2, fl.truncated(20))
    plan = fl.make_plan(fl.build_hamiltonian(ms, 2, b), tol=1e-300)
    v = random_fock(b, rng)
    with pytest.raises(fl.KrylovError):
        fl.evolve_fock(plan, v, 5.0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_non_finite_time_raises(rng, t):
    b = fl.enumerate_basis(2, fl.fixed(3))
    plan = fl.make_plan(fl.build_hamiltonian(_contact_ms(2), 3, b))
    with pytest.raises(ValueError, match="time t must be finite"):
        fl.evolve_fock(plan, random_fock(b, rng), t)


def test_plan_rejects_loose_tol():
    b = fl.enumerate_basis(2, fl.fixed(2))
    H = fl.build_hamiltonian(_contact_ms(2), 2, b)
    with pytest.raises(ValueError):
        fl.make_plan(H, tol=1e-6)


def test_large_basis_unitary_and_sector_conserving(rng):
    ms = _contact_ms(2)
    b = fl.enumerate_basis(2, fl.truncated(100))
    assert b.dim == 5151  # above the size any dense factorization would take
    plan = fl.make_plan(fl.build_hamiltonian(ms, 4, b))
    v = random_fock(b, rng)
    out = fl.evolve_fock(plan, v, 1.7)
    assert abs(out.norm() - v.norm()) < 1e-10
    assert np.max(np.abs(out.sector_norms() - v.sector_norms())) < 1e-10


def test_plan_rejects_non_hermitian(rng):
    import scipy.sparse as sp

    b = fl.enumerate_basis(2, fl.fixed(2))
    mat = sp.csr_matrix(np.triu(np.ones((b.dim, b.dim))), dtype=complex)
    op = fl.SparseOperator(basis=b, matrix=mat, hermitian=False)
    with pytest.raises(ValueError):
        fl.make_plan(op)


# ---------------------------------------------------------------------------
# number moments


def test_moment_of_vacuum():
    b = fl.enumerate_basis(2, fl.truncated(5))
    for delta in (0.0, 0.5, 1.0, 2.0):
        assert fl.number_moment(fl.vacuum(b), delta) == pytest.approx(1.0)


def test_moment_of_sector_state():
    b = fl.enumerate_basis(2, fl.truncated(6))
    v = fl.basis_state(b, (2, 1))
    for delta in (0.5, 1.0, 2.0):
        assert fl.number_moment(v, delta) == pytest.approx(4.0**delta)


def test_moment_of_coherent_state_poisson_oracle():
    n, delta = 4, 1.0
    b = fl.enumerate_basis(1, fl.truncated(fl.weyl_headroom(2.0)))
    v = fl.coherent_state(np.array([1.0 + 0j]), n, b)
    total, term = 0.0, np.exp(-float(n))  # term = Poisson(n, k)
    for k in range(200):
        total += (k + 1.0) ** (2 * delta) * term
        term *= n / (k + 1.0)
    assert fl.number_moment(v, delta) == pytest.approx(sqrt(total), abs=1e-8)


@pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf, -np.inf])
def test_moment_rejects_invalid_delta(bad):
    b = fl.enumerate_basis(2, fl.truncated(3))
    with pytest.raises(ValueError, match="delta must be finite and >= 0"):
        fl.number_moment(fl.vacuum(b), bad)


# ---------------------------------------------------------------------------
# fluctuation propagator


@pytest.fixture
def fluctuation_setup(rng):
    ms = _contact_ms(2, g=1.0)
    phi = random_unit(2, rng)
    traj = fl.trajectory_for_interpolation(ms, phi, 2.0, tol=1e-12)
    n = 4
    basis = fl.enumerate_basis(2, fl.truncated(40))
    return ms, n, traj, basis


def test_fluctuation_identity_at_t0(fluctuation_setup):
    ms, n, traj, basis = fluctuation_setup
    out, loss = fl.fluctuation_apply(n, traj, fl.vacuum(basis), 0.0)
    assert (out - fl.vacuum(basis)).norm() < 1e-6
    assert loss < 1e-6


def test_fluctuation_unitary_within_budget(fluctuation_setup):
    ms, n, traj, basis = fluctuation_setup
    for t in (0.25, 0.5, 1.0):
        out, loss = fl.fluctuation_apply(n, traj, fl.vacuum(basis), t)
        assert abs(out.norm() - 1.0) < 1e-6


def test_fluctuation_moment_growth_has_exponential_envelope(fluctuation_setup):
    ms, n, traj, basis = fluctuation_setup
    ts = np.linspace(0.0, 2.0, 9)
    for delta in (0.5, 1.0, 2.0):
        logs = []
        for t in ts:
            out, _ = fl.fluctuation_apply(n, traj, fl.vacuum(basis), t)
            logs.append(np.log(fl.number_moment(out, delta)))
        logs = np.array(logs)
        slope, intercept = np.polyfit(ts, logs, 1)
        assert slope > 0  # fluctuations grow
        # affine envelope: the fit dominates every sample up to small slack
        assert np.all(logs <= intercept + slope * ts + 0.5)


def test_fluctuation_does_not_depend_on_trajectory_sampling(fluctuation_setup):
    ms, n, traj, basis = fluctuation_setup
    coarse = fl.evolve_hartree(ms, traj.states[0], np.array([0.0, 2.0]), tol=1e-12)
    dense, _ = fl.fluctuation_apply(n, traj, fl.vacuum(basis), 1.0)
    sparse, _ = fl.fluctuation_apply(n, coarse, fl.vacuum(basis), 1.0)
    assert np.array_equal(dense.coeffs, sparse.coeffs)


def test_fluctuation_requires_headroom(fluctuation_setup):
    ms, n, traj, basis = fluctuation_setup
    small = fl.enumerate_basis(2, fl.truncated(10))
    with pytest.raises(fl.SectorError):
        fl.fluctuation_apply(n, traj, fl.vacuum(small), 0.5)


def test_fluctuation_requires_coverage(fluctuation_setup):
    ms, n, traj, basis = fluctuation_setup
    with pytest.raises(fl.SectorError):
        fl.fluctuation_apply(n, traj, fl.vacuum(basis), 5.0)
