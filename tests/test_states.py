"""Initial-state families and the Gram machinery of their superpositions."""

from math import exp, fsum, lgamma, sqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, pdtrc, xlogy

import focklab as fl
from focklab.fock import rank
from focklab.states import (
    POISSON_TAIL_FLOOR,
    _combine_components,
    _create_power,
    _fixed_from_tensor,
    _log_factorials,
    _poisson_cutoff,
    _poisson_tail,
    _tensor_from_fixed,
    _xlogy,
    component_states,
)
from focklab.tolerances import UNIT_NORM_TOL

from conftest import random_fock, random_unit


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


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 400))
def test_poisson_cutoff_is_smallest_k_within_floor(n):
    k = _poisson_cutoff(n)
    assert pdtrc(k, n) <= POISSON_TAIL_FLOOR < pdtrc(k - 1, n)
    assert k <= fl.weyl_headroom(sqrt(n))


def test_poisson_cutoff_bisection_matches_the_linear_search():
    def linear(n):
        k = int(n)
        while pdtrc(k, n) > POISSON_TAIL_FLOOR:
            k += 1
        return k

    # pdtrc holds to 1e-12 relative up to n of about 2e5; past that it is no oracle
    grid = [*range(1001), 0.5, 7.3, 1e4, 1e5]
    assert [_poisson_cutoff(n) for n in grid] == [linear(n) for n in grid]


@pytest.mark.parametrize("n", [123456, 1e6])
def test_poisson_cutoff_straddles_the_floor_in_60_digits(n):
    # pdtrc(K - 1, 1e6) misses the tail by 8e-9 relative at the cutoff
    # K = 1008233, so the tail of a 60-digit incomplete gamma judges these n
    mpmath = pytest.importorskip("mpmath")
    k = _poisson_cutoff(n)
    with mpmath.workdps(60):
        above, at = (1 - mpmath.gammainc(j + 1, n, mpmath.inf, regularized=True)
                     for j in (k - 1, k))
    assert above > POISSON_TAIL_FLOOR >= at


@settings(max_examples=200, deadline=None)
@given(log_m=st.floats(-3, np.log10(2e5)), where=st.floats(0, 1))
def test_poisson_tail_matches_pdtrc(log_m, where):
    # k from floor(m) to 5 past the cutoff; pdtrc itself drifts above m of
    # about 3e5 (next test), so this oracle stops at 2e5
    m = 10.0**log_m
    k = int(m) + round(where * (_poisson_cutoff(m) + 5 - int(m)))
    assert _poisson_tail(k, m) == pytest.approx(pdtrc(k, m), rel=1e-12, abs=0)


@pytest.mark.parametrize("m", [1e-3, 0.5, 7.3, 1000.0, 2e5, 1e6, 5e6])
def test_poisson_tail_matches_mpmath_up_to_the_cap(m):
    # pdtrc errs by 1.4e-12 relative at m = 2.9e5, 5.6e-6 at 9.1e5 and 9.4e-3
    # at 5e6 (k of m + 4.5 sqrt(m)) against this oracle
    mpmath = pytest.importorskip("mpmath")
    top = _poisson_cutoff(m) + 5
    for k in sorted({int(m), int(m + sqrt(m)), int(m + 4.5 * sqrt(m)), top - 5, top}):
        with mpmath.workdps(60):  # the tail at m = 1e-3 is 2.8e-37
            want = 1 - mpmath.gammainc(k + 1, m, mpmath.inf, regularized=True)
        assert _poisson_tail(k, m) == pytest.approx(float(want), rel=1e-12, abs=0)


def test_poisson_cutoff_refuses_beyond_the_cap_before_any_tail(monkeypatch):
    # a basis holding truncated(K), K >= floor(n), has floor(n) + 1 states or more
    k = _poisson_cutoff(fl.tolerances.DEFAULT_STATE_CAP)
    assert _poisson_tail(k, fl.tolerances.DEFAULT_STATE_CAP) <= POISSON_TAIL_FLOOR

    def no_tail(k, m):
        raise AssertionError("a tail was evaluated")

    monkeypatch.setattr(fl.states, "_poisson_tail", no_tail)
    with pytest.raises(fl.CapacityError):
        _poisson_cutoff(fl.tolerances.DEFAULT_STATE_CAP + 1)


@pytest.mark.parametrize("n", [float("nan"), -1.0, float("inf")])
def test_coherent_state_refuses_a_mean_number_that_is_not_finite_and_nonnegative(n):
    # the tail is NaN there, which fails the floor check; a NaN term would
    # never let the tail's series stop
    with pytest.raises(fl.SectorError):
        fl.coherent_state(np.array([1.0, 0.0]), n, fl.enumerate_basis(2, fl.truncated(10)))


def test_log_factorials_match_gammaln_and_mpmath():
    # up to 170 the table is log of the exact j!; above, math.lgamma and
    # gammaln each miss log j! by up to about 2 ulp, so they differ by up to 4
    # (at j = 4390)
    mpmath = pytest.importorskip("mpmath")
    got, j = _log_factorials(20000), np.arange(20001)
    ref = gammaln(j + 1.0)
    assert np.all(np.abs(got - ref) <= np.where(j <= 170, 2, 4) * np.spacing(ref))
    for i in [*range(171), 4390, *range(171, 20001, 997)]:
        want = float(mpmath.loggamma(i + 1))
        assert abs(got[i] - want) <= (0 if i <= 170 else 2) * np.spacing(want)


def test_xlogy_is_scipys_bit_for_bit():
    x = np.arange(60)[:, None]
    y = np.array([0.0, 5e-324, 1e-300, 0.3, 1.0, 2.5, 17.0, 1e5, 1e300])
    got = _xlogy(x, y)
    assert np.array_equal(got, xlogy(x, y))
    assert np.all(got[0] == 0.0) and np.all(got[1:, 0] == -np.inf)


def test_weyl_headroom_keeps_the_poisson_floor_up_to_n_662():
    # the bound the weyl_headroom docstring states: from n = 663 up the
    # headroom basis drops more than the floor and coherent_state refuses it
    n = np.arange(1, 664)
    tails = pdtrc([fl.weyl_headroom(sqrt(k)) for k in n], n)
    assert np.all(tails[:-1] <= POISSON_TAIL_FLOOR) and tails[-1] > POISSON_TAIL_FLOOR

    def on_headroom(k):
        basis = fl.enumerate_basis(1, fl.truncated(fl.weyl_headroom(sqrt(k))))
        return fl.coherent_state(np.array([1.0 + 0j]), k, basis)

    on_headroom(662)
    with pytest.raises(fl.SectorError):
        on_headroom(663)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(1, 3), n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_coherent_state_on_poisson_cutoff(d, n, seed):
    # the squared norm is the kept Poisson(n) mass, and the amplitudes are those
    # of the state on the larger headroom basis, sector by sector (the log-space
    # magnitudes and the phase power miss the mass by up to 2.1e-15, 10 ulp, in
    # 2e4 random draws)
    phi = random_unit(d, np.random.default_rng(seed))
    k = _poisson_cutoff(n)
    small = fl.enumerate_basis(d, fl.truncated(k))
    v = fl.coherent_state(phi, n, small)
    assert abs(fsum(np.abs(v.coeffs) ** 2) - (1.0 - pdtrc(k, n))) <= 4e-15
    wide = fl.enumerate_basis(d, fl.truncated(fl.weyl_headroom(sqrt(n))))
    w = fl.coherent_state(phi, n, wide)
    assert np.max(np.abs(w.coeffs[rank(wide, small.occs)] - v.coeffs)) <= 1e-15
    with pytest.raises(fl.SectorError):
        fl.coherent_state(phi, n, fl.enumerate_basis(d, fl.truncated(k - 1)))


# ---------------------------------------------------------------------------
# excitations


def test_unique_excitation_for_two_modes():
    phi = np.array([1.0, 0.0], dtype=complex)
    exc = fl.random_excitation(phi, 2, seed=123)
    assert exc.psi.coeffs[exc.psi.basis.index_of((0, 2))] == pytest.approx(1.0)


def test_excitation_reproducible_per_seed(rng):
    phi = random_unit(3, rng)
    a = fl.random_excitation(phi, 1, seed=42)
    b = fl.random_excitation(phi, 1, seed=42)
    c = fl.random_excitation(phi, 1, seed=43)
    assert np.array_equal(a.psi.coeffs, b.psi.coeffs)
    assert not np.allclose(a.psi.coeffs, c.psi.coeffs)


def test_excitation_orthogonality_sweep(rng):
    for trial in range(50):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        phi = random_unit(d, rng)
        exc = fl.random_excitation(phi, m, seed=trial)
        defect = fl.field_apply("annihilate", np.conj(phi), exc.psi).norm()
        assert defect < 1e-12


def test_excitation_size_is_its_sector(rng):
    phi = random_unit(3, rng)
    exc = fl.random_excitation(phi, 2, seed=0)
    assert exc.m == 2 and exc.psi.basis == _fixed(3, 2)
    vac = fl.vacuum(_fixed(3, 0))
    with pytest.raises(ValueError):
        fl.ExcitationState(psi=vac, orthogonal_to=phi)
    wide = fl.FockVector(fl.enumerate_basis(3, fl.truncated(2)),
                         np.eye(10)[1])  # the one-particle state (1, 0, 0)
    with pytest.raises(fl.SectorError):
        fl.ExcitationState(psi=wide, orthogonal_to=phi)


def test_excitation_needs_two_modes():
    with pytest.raises(ValueError):
        fl.random_excitation(np.array([1.0 + 0j]), 1, seed=0)


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
    exc = fl.random_excitation(phi, 1, seed=0)
    # psi_1 is forced to e_1; theta = sqrt(2) S(phi x psi) = |1,1>
    for method in ("symmetrize", "creation_polynomial", "weyl_projection"):
        th = fl.theta_state(phi, exc, 2, method, _fixed(2, 2))
        assert abs(th.coeffs[th.basis.index_of((1, 1))]) == pytest.approx(1.0, abs=1e-9)


def test_theta_methods_agree_random(rng):
    phi = random_unit(3, rng)
    exc = fl.random_excitation(phi, 2, seed=5)
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
    exc = fl.random_excitation(phi, 3, seed=1)
    with pytest.raises(ValueError):
        fl.theta_state(phi, exc, 2, "creation_polynomial", _fixed(2, 2))


def test_theta_rejects_nonorthogonal_excitation(rng):
    phi = random_unit(2, rng)
    exc = fl.random_excitation(phi, 1, seed=3)
    other = random_unit(2, rng)  # excitation built for phi, used with other
    with pytest.raises(ValueError):
        fl.theta_state(other, exc, 3, "creation_polynomial", _fixed(2, 3))


def test_theta_into_truncated_basis(rng):
    phi = random_unit(2, rng)
    exc = fl.random_excitation(phi, 1, seed=2)
    tb = fl.enumerate_basis(2, fl.truncated(10))
    th = fl.theta_state(phi, exc, 4, "creation_polynomial", tb)
    assert th.sector_norms()[4] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the closed form and the tensor oracles, indexed by rank


def _scan_create_power(f, k, v):
    """a*(f)^k v / sqrt(k!) found by scanning all of fixed(m + k) for the
    occupations N >= o of each support state o: the form ``_create_power``
    had before it read the ranks of o + j, with the same float operations and
    the library's own log-factorial table."""
    out = _fixed(v.basis.d, v.basis.n_max + k)
    powers = np.asarray(f, dtype=complex) ** np.arange(k + 1)[:, None]
    log_fact = _log_factorials(out.n_max)
    log_target = 0.5 * log_fact[out.occs].sum(axis=1) + 0.5 * log_fact[k]
    coeffs, modes = np.zeros(out.dim, dtype=complex), np.arange(v.basis.d)
    for i in np.flatnonzero(v.coeffs):
        o = v.basis.occs[i]
        hit = np.all(out.occs >= o, axis=1)
        j = out.occs[hit] - o
        log_amp = log_target[hit] - log_fact[j].sum(axis=1) - 0.5 * log_fact[o].sum()
        coeffs[hit] += v.coeffs[i] * np.exp(log_amp) * powers[j, modes].prod(axis=1)
    return coeffs


def _loop_tensor_from_fixed(v):
    """The symmetric tensor entry by entry, each looked up by ``index_of``."""
    basis, n, d = v.basis, v.basis.n_max, v.basis.d
    T = np.zeros((d,) * n, dtype=complex)
    for idx in np.ndindex(*[d] * n):
        occ = np.bincount(idx, minlength=d)
        scale = exp(0.5 * (sum(lgamma(k + 1) for k in occ) - lgamma(n + 1)))
        T[idx] = v.coeffs[basis.index_of(occ)] * scale
    return T


def _loop_fixed_from_tensor(T, d, n):
    """The occupation coefficients state by state, each read at its sorted
    index tuple."""
    basis = _fixed(d, n)
    coeffs = np.zeros(basis.dim, dtype=complex)
    for i, occ in enumerate(basis.occs):
        rep = sum(([p] * int(k) for p, k in enumerate(occ)), [])
        scale = exp(0.5 * (lgamma(n + 1) - sum(lgamma(int(k) + 1) for k in occ)))
        coeffs[i] = scale * T[tuple(rep)]
    return coeffs


def _sparse_vector(rng, d, m):
    """A complex vector on fixed(m) with about half its entries zero."""
    basis = _fixed(d, m)
    c = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    c[rng.random(basis.dim) < 0.5] = 0.0
    return fl.FockVector(basis, c)


def _field(rng, d):
    """A complex smearing function with about a third of its entries zero."""
    f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    f[rng.random(d) < 0.3] = 0.0
    return f


@settings(max_examples=300, deadline=None)
@given(d=st.integers(1, 4), m=st.integers(0, 3), k=st.integers(0, 8),
       seed=st.integers(0, 2**32 - 1))
def test_create_power_is_bitwise_the_output_scan(d, m, k, seed):
    rng = np.random.default_rng(seed)
    f, v = _field(rng, d), _sparse_vector(rng, d, m)
    got = _create_power(f, k, v)
    assert got.basis == _fixed(d, m + k)
    assert np.array_equal(got.coeffs, _scan_create_power(f, k, v))


def test_a_product_state_whose_closed_form_overflows_is_refused():
    # on 2 modes a*(phi)^n |0> / sqrt(n!) is finite at n = 2048; by n = 2060
    # some amplitude is inf * 0 (exp overflows where phi_p^j underflows), and
    # without a numpy warning the state refuses itself instead of being NaN
    phi = np.array([0.6, 0.8], dtype=complex)
    v = fl.product_state(phi, 2048, _fixed(2, 2048))
    assert np.all(np.isfinite(v.coeffs)) and abs(v.norm() - 1) <= UNIT_NORM_TOL
    with pytest.raises(fl.FocklabError, match=r"^theta state at n=2060, m=0 is not finite"):
        fl.product_state(phi, 2060, _fixed(2, 2060))


def _finite_unit_or_refused(build):
    """The built vector if it is finite and of unit norm, None if ``build``
    refuses with a one-line FocklabError; anything else fails the test."""
    try:
        v = build()
    except fl.FocklabError as e:
        assert "\n" not in str(e)
        return None
    assert np.all(np.isfinite(v.coeffs)) and abs(v.norm() - 1) <= UNIT_NORM_TOL
    return v


def test_constructors_at_the_edge_of_the_float_range():
    # each constructor just below and just above the n where its largest
    # intermediate leaves the float range: on 2 modes the product state is
    # finite at n = 2048 and refused at 2060, on 3 modes finite at 1290 and
    # refused at 1300; the finite two-mode states propagate
    for d, ns, phi in ((2, (2048, 2060), [0.6, 0.8]), (3, (1290, 1300), [0.48, 0.6, 0.64])):
        phi = np.array(phi, dtype=complex)
        ms = fl.ModeSystem.lattice(d)
        for n in ns:
            basis = _fixed(d, n)
            built = [_finite_unit_or_refused(lambda: fl.product_state(phi, n, basis))]
            for m in (1, 3):
                exc = fl.random_excitation(phi, m, seed=m)
                built.append(_finite_unit_or_refused(
                    lambda: fl.theta_state(phi, exc, n, "creation_polynomial", basis)))
            assert (built[0] is None) == (n == ns[1])
            for v in built:
                if v is not None and d == 2:
                    plan = fl.make_plan(fl.build_hamiltonian(ms, n, basis))
                    _finite_unit_or_refused(lambda: fl.evolve_fock(plan, v, 1e-3))
    # one mode at n = 1e6: the log-space terms of the amplitudes reach 1e7 and
    # used to cancel to a norm defect of 4e-10
    n = 10**6
    basis = fl.enumerate_basis(1, fl.truncated(_poisson_cutoff(n)))
    assert _finite_unit_or_refused(lambda: fl.coherent_state(np.array([1.0]), n, basis))


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), n=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_tensor_conversions_invert_and_keep_the_norm(d, n, seed):
    rng = np.random.default_rng(seed)
    v = random_fock(_fixed(d, n), rng)
    T = _tensor_from_fixed(v)
    assert T.shape == (d,) * n
    assert np.array_equal(T, np.transpose(T, rng.permutation(n)))  # symmetric
    assert fsum(np.abs(T.ravel()) ** 2) == pytest.approx(v.norm() ** 2, abs=1e-14)
    back = _fixed_from_tensor(T, d, n)
    assert np.max(np.abs(back - v.coeffs)) <= 1e-14
    # the same float operations as the loops, so the same bits
    assert np.array_equal(T, _loop_tensor_from_fixed(v))
    assert np.array_equal(back, _loop_fixed_from_tensor(T, d, n))


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


@pytest.mark.parametrize("d", [2, 3, 4])
def test_weyl_oracle_displaces_on_truncated_n(d, rng, monkeypatch):
    # the sector n of the projected image does not depend on how far the
    # basis reaches above n, so the oracle needs no headroom
    from focklab import states

    seen = []
    weyl_apply = states.weyl_apply

    def spy(alpha, v):
        seen.append(v.basis.sector)
        return weyl_apply(alpha, v)

    monkeypatch.setattr(states, "weyl_apply", spy)
    for n in range(1, 9):
        for m in range(min(3, n) + 1):
            phi = random_unit(d, rng)
            exc = None if m == 0 else fl.random_excitation(phi, m, seed=(d, n, m))
            want = fl.theta_state(phi, exc, n, "creation_polynomial", _fixed(d, n))
            got = fl.theta_state(phi, exc, n, "weyl_projection", _fixed(d, n))
            assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-13
            assert seen.pop() == ("truncated", n)


@pytest.mark.parametrize("n,m,d", [(24, 1, 2), (24, 2, 3), (40, 1, 2)])
def test_theta_weyl_oracle_at_paper_scale(n, m, d, rng):
    # C*(sqrt(n) phi) theta has sector norms a_k at k + m, in closed form;
    # the undoing displacement acts on a sector of a weyl_headroom basis
    phi = random_unit(d, rng)
    exc = fl.random_excitation(phi, m, seed=(n, m, d))
    basis = fl.enumerate_basis(d, fl.truncated(fl.weyl_headroom(sqrt(n))))
    th = fl.theta_state(phi, exc, n, "creation_polynomial", basis)
    disp, _ = fl.weyl_apply(-sqrt(n) * phi, th)
    a = fl.theta_weyl_coefficients(n, m).a
    assert np.max(np.abs(disp.sector_norms()[m : n + 1] - a)) < 1e-12


def test_theta_overlap_respects_factorial_bound(rng):
    n, m = 8, 1
    phi1 = random_unit(2, rng)
    phi2 = random_unit(2, rng)
    e1 = fl.random_excitation(phi1, m, seed=0)
    e2 = fl.random_excitation(phi2, m, seed=1)
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
    sector = fl.truncated(_poisson_cutoff(n)) if kind == "coherent" else fl.fixed(n)
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
    e1 = fl.random_excitation(phi1, 1, seed=0)
    e2 = fl.random_excitation(phi2, 1, seed=1)
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


def test_a_subnormal_square_norm_is_refused():
    # (3e-162)^2 sums to a subnormal c^H G c of a few bits: the normalized
    # coefficients would be wrong
    phis = [np.array([0.8, 0.36 + 0.48j]), np.array([0.6, 0.8])]
    spec = fl.SuperpositionSpec(kind="product", coeffs=[3e-162, 3e-162], phis=phis)
    with pytest.raises(fl.DegeneracyError, match="^superposition has numerically vanishing norm$"):
        fl.superposition(spec, 4, _fixed(2, 4))


def test_theta_schedule_must_be_nondecreasing(rng):
    phi1 = np.array([1.0, 0.0, 0.0], dtype=complex)
    phi2 = np.array([0.0, 1.0, 0.0], dtype=complex)
    e1 = fl.random_excitation(phi1, 2, seed=0)
    e2 = fl.random_excitation(phi2, 1, seed=1)
    with pytest.raises(ValueError):
        fl.SuperpositionSpec(
            kind="theta", coeffs=[1.0, 1.0], phis=[phi1, phi2], excitations=[e1, e2]
        )


def test_theta_superposition_rejects_inadmissible_m(rng):
    phi1 = np.array([1.0, 0.0, 0.0], dtype=complex)
    phi2 = np.array([0.0, 1.0, 0.0], dtype=complex)
    e1 = fl.random_excitation(phi1, 2, seed=0)
    e2 = fl.random_excitation(phi2, 2, seed=1)
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
    e1 = fl.random_excitation(phi1, 1, seed=0)
    e2 = fl.random_excitation(phi2, 1, seed=1)
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
