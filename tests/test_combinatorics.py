"""Laguerre recurrence, displaced-state coefficients, envelope bounds.

The alternating-sum oracle is evaluated with mpmath at 60 digits; it is the
reference everywhere the double-precision sum would cancel catastrophically.
"""

from math import exp, log, pi, sqrt

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import focklab as fl
from focklab.combinatorics import harmonic_number, zeta

mp.mp.dps = 60


def laguerre_sum_oracle(k, alpha, x):
    """Explicit alternating sum in 60-digit arithmetic."""
    total = mp.mpf(0)
    for i in range(k + 1):
        total += (
            (-1) ** i
            * mp.mpf(x) ** i
            * mp.gamma(k + alpha + 1)
            / (mp.factorial(i) * mp.factorial(k - i) * mp.gamma(alpha + i + 1))
        )
    return total


def displaced_coefficient_oracle(n, m, k):
    """A_k from the definition, in extended precision.

    The alternating sum at x = n cancels down from terms of size ~ e^n, so
    the working precision must scale with n.
    """
    with mp.workdps(60 + int(0.6 * n)):
        L = laguerre_sum_oracle(k, n - m - k, n)
        val = (
            mp.e ** (mp.mpf(-n) / 2)
            * mp.sqrt(n) ** (n - m - k)
            * mp.sqrt(mp.factorial(k) / mp.factorial(n - m))
            * abs(L)
        )
        return float(val)


# ---------------------------------------------------------------------------
# laguerre


def test_degree_zero_is_one():
    for alpha in (0.0, 2.5, 7):
        for x in (0.0, 1.0, 30.0):
            assert fl.laguerre(0, alpha, x) == 1.0


def test_degree_one_explicit_zero():
    assert fl.laguerre(1, 2, 3.0) == pytest.approx(0.0, abs=1e-15)


def test_degree_two_explicit():
    # (x^2 - 4x + 2)/2 at x=4
    assert fl.laguerre(2, 0, 4.0) == pytest.approx(1.0, abs=1e-12)


def test_recurrence_matches_extended_precision_sum():
    worst = 0.0
    for k in range(0, 26):
        for alpha in range(0, 11):
            for x in (0.5, 1.0, 5.0, 20.0):
                want = float(laguerre_sum_oracle(k, alpha, x))
                got = fl.laguerre(k, alpha, x)
                rel = abs(got - want) / max(1e-300, abs(want))
                worst = max(worst, rel)
    assert worst < 1e-9


def test_laguerre_domain_errors():
    with pytest.raises(ValueError):
        fl.laguerre(-1, 0, 1.0)
    with pytest.raises(ValueError):
        fl.laguerre(2, -1.0, 1.0)


# ---------------------------------------------------------------------------
# log_dnm


def test_log_dnm_small_case_against_direct_formula():
    # n=2, m=0: d = sqrt(2) * e / 2
    want = log(sqrt(2.0) * exp(1.0) / 2.0)
    assert fl.log_dnm(2, 0) == pytest.approx(want, abs=1e-14)


def test_log_dnm_collapses_at_m_equals_n():
    for n in (1, 5, 40):
        assert fl.log_dnm(n, n) == pytest.approx(n / 2.0, abs=1e-12)


def test_log_dnm_no_overflow_at_huge_n():
    val = fl.log_dnm(10**6, 10)
    assert np.isfinite(val)
    # Stirling: log d ~ (1/4) log(2 pi (n-m))
    assert val == pytest.approx(0.25 * log(2 * pi * (10**6 - 10)), rel=1e-3)


def test_log_dnm_stirling_limit():
    # d_{n,m} / (2 pi (n-m))^{1/4} -> 1 with shrinking deviation; the
    # often-quoted (n-m)^{1/4} e^{m/2} growth misses the constant
    # (2 pi)^{1/4} e^{-m/2}, so the correct limit is pinned here instead
    for m in (0, 1, 2):
        devs = []
        for n in (100, 1000, 10000):
            ratio = exp(fl.log_dnm(n, m)) / (2 * pi * (n - m)) ** 0.25
            devs.append(abs(ratio - 1.0))
        assert devs[0] < 0.05 and devs[1] < 0.01 and devs[2] < 0.003
        assert devs[0] > devs[1] > devs[2]


def test_log_dnm_matches_extended_precision():
    for n, m in [(5, 0), (12, 3), (200, 9)]:
        want = mp.log(
            mp.sqrt(mp.factorial(n - m)) / (mp.e ** (mp.mpf(-n) / 2) * mp.mpf(n) ** (mp.mpf(n - m) / 2))
        )
        assert fl.log_dnm(n, m) == pytest.approx(float(want), abs=1e-10)


def test_log_dnm_domain():
    with pytest.raises(ValueError):
        fl.log_dnm(3, 4)
    with pytest.raises(ValueError):
        fl.log_dnm(0, 0)


# ---------------------------------------------------------------------------
# displaced-state coefficients A_k


def test_first_two_coefficients_closed_form():
    n, m = 10, 2
    coeff = fl.theta_weyl_coefficients(n, m)
    d = exp(coeff.log_dnm)
    assert coeff.a[0] == pytest.approx(1.0 / d, rel=1e-13)
    assert coeff.a[1] == pytest.approx(m / (sqrt(n) * d), rel=1e-13)


@pytest.mark.parametrize("n,m", [(2, 0), (6, 1), (6, 2), (8, 1), (10, 2), (9, 3)])
def test_coefficients_match_extended_precision_oracle(n, m):
    coeff = fl.theta_weyl_coefficients(n, m)
    for k in range(n - m + 1):
        assert coeff.a[k] == pytest.approx(
            displaced_coefficient_oracle(n, m, k), abs=1e-13
        )


def test_coefficients_match_oracle_at_moderate_n():
    # the recurrence stays accurate where the raw Laguerre sum would need
    # hundreds of digits
    n, m = 200, 3
    coeff = fl.theta_weyl_coefficients(n, m)
    for k in (0, 1, 2, 10, 100, 197):
        assert coeff.a[k] == pytest.approx(
            displaced_coefficient_oracle(n, m, k), abs=1e-12
        )


@given(n=st.integers(1, 400))
@settings(deadline=None, max_examples=40)
def test_unit_vector_budget(n):
    m = min(fl.admissible_m(n), n)
    coeff = fl.theta_weyl_coefficients(n, m)
    assert coeff.sum_sq() <= 1.0 + 1e-12
    assert np.all(np.isfinite(coeff.a))


def _numpy_recurrence(n, m):
    """The recurrence as it ran on numpy scalars, kept as a bit-level pin."""
    ld = fl.log_dnm(n, m)
    b = np.zeros(n - m + 2)
    b[1] = exp(-ld)
    for k in range(n - m):
        b[k + 2] = (k + m) / sqrt(n * (k + 1.0)) * b[k + 1] - sqrt(k / (k + 1.0)) * b[k]
    return np.abs(b[1:])


@pytest.mark.parametrize("n,m", [(1, 0), (1, 1), (6, 2), (200, 3), (1000, 0), (3200, 7)])
def test_coefficients_are_bit_identical_to_the_numpy_recurrence(n, m):
    got = fl.theta_weyl_coefficients(n, m).a
    want = _numpy_recurrence(n, m)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_no_overflow_at_large_n():
    coeff = fl.theta_weyl_coefficients(5000, 5)
    assert np.all(np.isfinite(coeff.a))
    assert coeff.sum_sq() <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Krasikov envelope


def test_envelope_example_k2():
    kb = fl.krasikov_bound(2, 0, 4.0)
    assert kb.valid
    assert kb.bound == pytest.approx(4.8226, abs=1e-3)
    assert abs(fl.laguerre(2, 0, 4.0)) < kb.bound


def test_envelope_invalid_below_window():
    kb = fl.krasikov_bound(2, 0, 0.05)
    assert not kb.valid


def test_envelope_strict_on_valid_window_sweep(rng):
    for _ in range(500):
        k = int(rng.integers(2, 26))
        alpha = float(rng.uniform(-0.9, 10.0))
        s = sqrt(k + alpha + 1) + sqrt(k)
        q = sqrt(k + alpha + 1) - sqrt(k)
        x = float(rng.uniform(q * q * 1.0001, s * s * 0.9999))
        kb = fl.krasikov_bound(k, alpha, x)
        assert kb.valid
        assert abs(fl.laguerre(k, alpha, x)) < kb.bound


def test_envelope_requires_k_at_least_two():
    with pytest.raises(ValueError):
        fl.krasikov_bound(1, 0, 1.0)


# ---------------------------------------------------------------------------
# admissible excitation size


@pytest.mark.parametrize("n,want", [(100, 14), (1, 0), (4, 1), (3, 1)])
def test_admissible_values(n, want):
    assert fl.admissible_m(n) == want


@given(n=st.integers(1, 10**9))
@settings(deadline=None, max_examples=60)
def test_admissible_is_exact_floor(n):
    m = fl.admissible_m(n)
    assert (m + 3) ** 2 <= 7 + 3 * n or m == 0
    assert (m + 4) ** 2 > 7 + 3 * n


# ---------------------------------------------------------------------------
# weighted number moment and harmonic numbers


def test_weighted_moment_holds_small():
    wm = fl.weighted_number_moment(50, 0, 0.5)
    assert wm.lhs <= wm.rhs


def test_weighted_moment_holds_and_scaled_rhs_tame():
    wm = fl.weighted_number_moment(200, 3, 0.5)
    assert wm.lhs <= wm.rhs
    scaled = []
    for n in (200, 800, 3200):
        w = fl.weighted_number_moment(n, 3, 0.5)
        assert w.lhs <= w.rhs
        scaled.append(w.rhs * exp(2 * fl.log_dnm(n, 3)) * exp(-3.0))
    # grows only through the harmonic-number factor; tame over the sweep
    assert max(scaled) / min(scaled) < 2.0


def test_weighted_moment_over_admissible_grid():
    for n in (20, 50, 100, 200, 800):
        for m in sorted({0, 1, fl.admissible_m(n)}):
            wm = fl.weighted_number_moment(n, m, 0.5)
            assert wm.lhs <= wm.rhs


def test_weighted_moment_rejects_inadmissible_m():
    with pytest.raises(ValueError):
        fl.weighted_number_moment(10, fl.admissible_m(10) + 1, 0.5)
    with pytest.raises(ValueError):
        fl.weighted_number_moment(100, 0, 0.25)


@pytest.mark.parametrize("entry", ["config", "superposition", "weighted_number_moment"])
def test_every_admissible_check_refuses_with_one_message(entry):
    n, phi = 10, np.array([0.6, 0.8j])  # admissible_m(10) = 3

    def call(m):
        if entry == "config":
            fl.ExperimentConfig.from_dict({
                "mode_system": {"geometry": "lattice", "sites": 2,
                                "potential": {"kind": "contact", "g": 1.0}},
                "state": {"family": "theta", "phi": [[0.6, 0.0], [0.0, 0.8]], "m": m},
                "n_list": [n], "t_list": [0.5]})
        elif entry == "superposition":
            spec = fl.SuperpositionSpec(kind="theta", coeffs=[1.0], phis=[phi],
                                        excitations=[fl.random_excitation(phi, m, seed=0)])
            fl.superposition(spec, n, fl.enumerate_basis(2, fl.fixed(n)))
        else:
            fl.weighted_number_moment(n, m, 0.5)

    call(3)
    with pytest.raises((ValueError, fl.ConfigError)) as info:
        call(4)
    assert str(info.value) == "m=4 exceeds admissible bound 3 at n=10"


def test_harmonic_number_approaches_zeta():
    assert harmonic_number(1.5, 10**5) == pytest.approx(2.612, abs=0.01)


def test_zeta_partial_sum_with_tail_correction():
    # Euler-Maclaurin within 1e-14 of scipy on (1, 64]
    import scipy.special

    for s in [*(1 + np.geomspace(1e-12, 63, 200)), 1.5, 2.0, 64.0]:
        assert zeta(s) == pytest.approx(float(scipy.special.zeta(s)), rel=1e-14, abs=0)
    assert zeta(2.0) == pytest.approx(pi**2 / 6, abs=1e-6)


def test_zeta_is_accurate_near_one_and_rejects_s_le_1():
    mpmath = pytest.importorskip("mpmath")
    for s in (1.1, 1.5, 3.0):
        assert zeta(s) == pytest.approx(float(mpmath.zeta(s)), rel=1e-15)
    for s in (1.0, 0.5):
        with pytest.raises(ValueError):
            zeta(s)
