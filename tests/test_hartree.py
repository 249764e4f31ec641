"""Mean-field integrator: right-hand side, conservation, exact solutions."""

from math import sqrt

import numpy as np
import pytest

import focklab as fl

from conftest import random_hermitian, random_unit


def _random_ms(d, rng):
    v = rng.standard_normal((d, d))
    return fl.ModeSystem.dense(random_hermitian(d, rng), (v + v.T) / 2)


# ---------------------------------------------------------------------------
# right-hand side


def test_rhs_free_case(rng):
    h = random_hermitian(3, rng)
    ms = fl.ModeSystem.dense(h, np.zeros((3, 3)))
    phi = random_unit(3, rng)
    assert np.allclose(fl.hartree_rhs(ms, phi), -1j * h @ phi, atol=1e-14)


def test_rhs_single_mode_cubic():
    g = 2.3
    ms = fl.ModeSystem.dense(np.zeros((1, 1)), np.array([[g]]))
    c = 0.6 - 0.3j
    got = fl.hartree_rhs(ms, np.array([c]))
    assert got[0] == pytest.approx(-1j * g * abs(c) ** 2 * c, abs=1e-15)


def test_rhs_norm_derivative_vanishes(rng):
    ms = _random_ms(4, rng)
    phi = random_unit(4, rng)
    # d/dt ||phi||^2 = 2 Re<phi, dphi/dt> = 0
    assert abs(np.vdot(phi, fl.hartree_rhs(ms, phi)).real) < 1e-12


# ---------------------------------------------------------------------------
# energy


def test_energy_free_identity(rng):
    ms = fl.ModeSystem.dense(np.eye(2), np.zeros((2, 2)))
    assert fl.hartree_energy(ms, random_unit(2, rng)) == pytest.approx(1.0)


def test_energy_single_mode():
    g = 1.4
    ms = fl.ModeSystem.dense(np.zeros((1, 1)), np.array([[g]]))
    c = 0.8 + 0.1j
    assert fl.hartree_energy(ms, np.array([c])) == pytest.approx(
        g * abs(c) ** 4 / 2, abs=1e-14
    )


def test_energy_conserved_along_trajectory(rng):
    ms = _random_ms(3, rng)
    traj = fl.evolve_hartree(ms, random_unit(3, rng), np.linspace(0, 2, 9))
    assert np.max(np.abs(traj.energy_log - traj.energy_log[0])) < 1e-6


# ---------------------------------------------------------------------------
# integration


def test_free_diagonal_exact():
    h = np.diag([0.3, -1.1, 2.0])
    ms = fl.ModeSystem.dense(h, np.zeros((3, 3)))
    phi = np.array([0.5, 0.5, 1.0 / sqrt(2)], dtype=complex)
    grid = np.linspace(0, 2, 5)
    traj = fl.evolve_hartree(ms, phi, grid, tol=1e-12)
    for i, t in enumerate(grid):
        want = np.exp(-1j * np.diag(h) * t) * phi
        assert np.linalg.norm(traj.states[i] - want) < 1e-9


def test_single_mode_exact_phase():
    g = 1.9
    ms = fl.ModeSystem.dense(np.zeros((1, 1)), np.array([[g]]))
    phi = np.array([1.0 + 0j])
    grid = np.linspace(0, 2, 5)
    traj = fl.evolve_hartree(ms, phi, grid, tol=1e-12)
    for i, t in enumerate(grid):
        assert abs(traj.states[i, 0] - np.exp(-1j * g * t)) < 1e-9


def test_tolerance_scaling_richardson(rng):
    # the adaptive controller tracks the requested tolerance roughly linearly
    # (log-log slope near 1 with jitter); every halving must reduce the
    # error, and across the whole chain the slope must stay above 3/4
    ms = _random_ms(4, rng)
    phi = random_unit(4, rng)
    grid = np.array([0.0, 1.0])
    ref = fl.evolve_hartree(ms, phi, grid, tol=1e-13).states[-1]
    tols = np.array([1.6e-8, 8e-9, 4e-9, 2e-9, 1e-9])
    errs = np.array([
        np.linalg.norm(fl.evolve_hartree(ms, phi, grid, tol=tol).states[-1] - ref)
        for tol in tols
    ])
    assert np.all(np.diff(errs) < 0)
    slope = np.polyfit(np.log(tols), np.log(errs), 1)[0]
    assert slope >= 0.75


def test_conservation_over_random_systems(rng):
    for _ in range(20):
        d = int(rng.integers(2, 5))
        ms = _random_ms(d, rng)
        traj = fl.evolve_hartree(ms, random_unit(d, rng), np.linspace(0, 2, 11))
        assert np.max(np.abs(traj.norm_log - 1.0)) <= 1e-8
        assert np.max(np.abs(traj.energy_log - traj.energy_log[0])) <= 1e-6


def test_gauge_covariance_quarter_turn_exact(rng):
    ms = _random_ms(4, rng)
    phi = random_unit(4, rng)
    grid = np.linspace(0, 1, 5)
    base = fl.evolve_hartree(ms, phi, grid)
    turned = fl.evolve_hartree(ms, 1j * phi, grid)
    # multiplication by i is an exact rotation in floating point
    assert np.array_equal(turned.states, 1j * base.states)


def test_gauge_covariance_generic_phase(rng):
    ms = _random_ms(3, rng)
    phi = random_unit(3, rng)
    grid = np.linspace(0, 1, 5)
    base = fl.evolve_hartree(ms, phi, grid)
    turned = fl.evolve_hartree(ms, np.exp(0.3j) * phi, grid)
    assert np.max(np.abs(turned.states - np.exp(0.3j) * base.states)) < 1e-12


def test_time_reversal(rng):
    tol = 1e-10
    ms = _random_ms(3, rng)
    phi = random_unit(3, rng)
    fwd = fl.evolve_hartree(ms, phi, np.array([0.0, 1.5]), tol=tol)
    end = fwd.states[-1] / np.linalg.norm(fwd.states[-1])
    back = fl.evolve_hartree(ms, end, np.array([1.5, 0.0]), tol=tol)
    assert np.linalg.norm(back.states[-1] - phi) <= 10 * max(tol, 1e-10) * 100


def test_rejects_unnormalized_start(rng):
    ms = _random_ms(2, rng)
    with pytest.raises(ValueError):
        fl.evolve_hartree(ms, np.array([1.0, 1.0]), np.linspace(0, 1, 3))


# ---------------------------------------------------------------------------
# trajectory interpolation and export


def test_interpolation_error_budget(rng):
    ms = _random_ms(3, rng)
    phi = random_unit(3, rng)
    traj = fl.trajectory_for_interpolation(ms, phi, 1.0, dt=0.01)
    probe = fl.evolve_hartree(ms, phi, np.array([0.0, 0.5155]), tol=1e-12)
    assert np.linalg.norm(traj.at(0.5155) - probe.states[-1]) < 1e-8


def test_interpolation_outside_window(rng):
    ms = _random_ms(2, rng)
    traj = fl.trajectory_for_interpolation(ms, random_unit(2, rng), 1.0)
    with pytest.raises(fl.IntegrationError):
        traj.at(1.5)


def test_csv_export_schema(tmp_path, rng):
    ms = _random_ms(2, rng)
    traj = fl.evolve_hartree(ms, random_unit(2, rng), np.linspace(0, 1, 3))
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,re_phi_0,im_phi_0,re_phi_1,im_phi_1,norm,energy"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[-2]) == pytest.approx(1.0, abs=1e-12)
