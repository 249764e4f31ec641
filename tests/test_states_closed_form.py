"""Closed-form state construction against the routes it replaced: repeated
smeared creation through ``field_apply``, the per-occupation creation loop of
the random excitation, the multinomial product state, and the Weyl power
series for coherent states."""

from math import exp, lgamma, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import focklab as fl
from conftest import random_unit
from focklab.states import _create_power


def _ref_create_power(f, k, v):
    """a*(f)^k v / sqrt(k!) as k smeared creations."""
    for _ in range(k):
        v = fl.field_apply("create", f, v)
    return v.coeffs * exp(-0.5 * lgamma(k + 1))


def _ref_product_state(phi, n):
    """Multinomial amplitudes sqrt(n!/prod occ!) prod phi^occ on fixed(n)."""
    occ = fl.enumerate_basis(len(phi), fl.fixed(n)).occs
    lg = np.vectorize(lgamma)
    log_amp = 0.5 * (lgamma(n + 1) - np.sum(lg(occ + 1.0), axis=1))
    return np.exp(log_amp) * np.prod(np.power(phi[None, :], occ), axis=1)


def _ref_random_excitation(phi, m, seed):
    """The excitation draw, built occupation by occupation of the complement
    modes with one ``field_apply`` per created particle."""
    d = len(phi)
    q, _ = np.linalg.qr(np.concatenate([phi[:, None], np.eye(d)], axis=1))
    complement = [q[:, j] for j in range(1, d)]
    virt = fl.enumerate_basis(d - 1, fl.fixed(m))
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(virt.dim) + 1j * rng.standard_normal(virt.dim)
    coeff /= np.linalg.norm(coeff)
    lead = np.flatnonzero(np.abs(coeff) > 0)[0]
    coeff *= np.conj(coeff[lead]) / np.abs(coeff[lead])
    psi = np.zeros(fl.enumerate_basis(d, fl.fixed(m)).dim, dtype=complex)
    for c, occ in zip(coeff, virt.occs):
        w = fl.vacuum(fl.enumerate_basis(d, fl.fixed(0)))
        for i, reps in enumerate(occ):
            for _ in range(int(reps)):
                w = fl.field_apply("create", complement[i], w)
        psi += c * exp(-0.5 * sum(lgamma(int(r) + 1) for r in occ)) * w.coeffs
    return psi / np.linalg.norm(psi)


def _random(rng, size):
    """Complex entries, about 30 % of them zero."""
    z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    z[rng.random(size) < 0.3] = 0.0
    return z


@settings(max_examples=80, deadline=None)
@given(d=st.integers(1, 4), m=st.integers(0, 3), k=st.integers(0, 10),
       seed=st.integers(0, 2**32 - 1))
def test_create_power_matches_repeated_creation(d, m, k, seed):
    rng = np.random.default_rng(seed)
    f = _random(rng, d)
    basis = fl.enumerate_basis(d, fl.fixed(m))
    v = fl.FockVector(basis, _random(rng, basis.dim))
    got = _create_power(f, k, v)
    want = _ref_create_power(f, k, v)
    assert got.basis == fl.enumerate_basis(d, fl.fixed(m + k))
    # relative to the result: a non-unit f scales it by up to |f|^k
    assert np.linalg.norm(got.coeffs - want) <= 1e-13 * max(1.0, np.linalg.norm(want))


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 4), n=st.integers(0, 10), seed=st.integers(0, 2**32 - 1))
def test_product_state_matches_multinomial(d, n, seed):
    rng = np.random.default_rng(seed)
    phi = random_unit(d, rng)
    if d > 1:
        phi[rng.integers(d)] = 0.0
        phi /= np.linalg.norm(phi)
    got = fl.product_state(phi, n, fl.enumerate_basis(d, fl.fixed(n)))
    assert np.linalg.norm(got.coeffs - _ref_product_state(phi, n)) <= 1e-13


@pytest.mark.parametrize("d, m, n", [(2, 1, 6), (3, 2, 9), (4, 3, 12), (4, 1, 18)])
def test_theta_creation_matches_repeated_creation(d, m, n):
    rng = np.random.default_rng(n)
    phi = random_unit(d, rng)
    exc = fl.random_excitation(phi, m, seed=n)
    got = fl.theta_state(phi, exc, n, "creation_polynomial",
                         fl.enumerate_basis(d, fl.fixed(n)))
    assert np.linalg.norm(got.coeffs - _ref_create_power(phi, n - m, exc.psi)) <= 1e-13


@pytest.mark.parametrize("d, m, seed", [
    (2, 1, 0), (2, 3, 7), (3, 2, 123), (4, 3, (7, 0, 3)), (5, 2, (1, 2)),
])
def test_random_excitation_keeps_its_draw(d, m, seed):
    phi = random_unit(d, np.random.default_rng(d + m))
    got = fl.random_excitation(phi, m, seed=seed)
    assert np.linalg.norm(got.psi.coeffs - _ref_random_excitation(phi, m, seed)) <= 1e-14


@pytest.mark.parametrize("d, n, extra", [
    (1, 5, 0), (2, 0, 0), (2, 3, 0), (2, 7, 4), (3, 4, 0), (3, 9, 0), (4, 2, 0),
], ids=lambda x: str(x))
def test_coherent_state_matches_weyl_series(d, n, extra):
    # extra == 0 puts n_max at the headroom edge, where the truncation bites most
    rng = np.random.default_rng(10 * d + n)
    phi = random_unit(d, rng)
    if d == 3:
        phi[1] = 0.0
        phi /= np.linalg.norm(phi)
    basis = fl.enumerate_basis(d, fl.truncated(fl.weyl_headroom(sqrt(n)) + extra))
    want, _loss = fl.weyl_apply(sqrt(n) * phi, fl.vacuum(basis))
    got = fl.coherent_state(phi, n, basis)
    assert (got - want).norm() <= 1e-14


def test_coherent_state_stays_finite_at_large_n():
    # a_p^o_p alone overflows here; the log-space magnitude does not
    n = 400
    basis = fl.enumerate_basis(1, fl.truncated(fl.weyl_headroom(sqrt(n))))
    v = fl.coherent_state(np.array([1.0 + 0j]), n, basis)
    assert np.all(np.isfinite(v.coeffs))
    assert abs(v.norm() - 1.0) < 1e-10
    assert abs(np.vdot(v.coeffs, basis.totals * v.coeffs).real - n) < 1e-8
