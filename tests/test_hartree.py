"""Mean-field integrator: right-hand side, conservation, exact solutions."""

import os
import subprocess
import sys
import warnings
from math import sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, solve_ivp  # the oracle of the stepper, and only here

import focklab as fl
from focklab.hartree import _A, _B, _D, _E3, _E5, _generator_bound, _integrate
from focklab.tolerances import ENERGY_DRIFT_TOL, NORM_DRIFT_TOL

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


@pytest.mark.parametrize("grid", [[np.inf], [np.nan], [-np.inf], [0.0, 1.0, np.nan]])
def test_a_time_that_is_not_finite_is_refused(rng, grid):
    with pytest.raises(ValueError, match="t_grid times must be finite"):
        fl.evolve_hartree(fl.ModeSystem.lattice(2), random_unit(2, rng), grid)


@pytest.mark.parametrize("grid", [[], [[0.0, 1.0]], np.zeros((2, 2))])
def test_a_grid_that_is_empty_or_not_1d_is_refused(rng, grid):
    # an empty grid raised IndexError; a 2-D one gave a trajectory with 2-D times
    with pytest.raises(ValueError, match="t_grid must be a non-empty 1-D list of times"):
        fl.evolve_hartree(fl.ModeSystem.lattice(2), random_unit(2, rng), grid)


@pytest.mark.parametrize("t_max, dt", [(1.0, 0.0), (1.0, -0.1), (1.0, np.nan), (np.nan, 0.1),
                                       (np.inf, 0.1), (1e308, 1e-10)])
def test_interpolation_needs_a_positive_step_and_a_finite_sample_count(rng, t_max, dt):
    # dt = 0 raised ZeroDivisionError, a nan "cannot convert float NaN to integer"
    with pytest.raises(ValueError, match=r"^need dt > 0 and a finite t_max / dt"):
        fl.trajectory_for_interpolation(fl.ModeSystem.lattice(2), random_unit(2, rng),
                                        t_max, dt=dt)


def test_interpolation_grid_is_capped_before_it_is_built(rng):
    # t_max = 1000 at dt = 1e-7 asked for 1e10 samples (80 GB) at |t s| = 5000,
    # inside the time radius
    with pytest.raises(fl.CapacityError, match=r"^trajectory_for_interpolation: t_grid "
                                               r"has 10000001 entries, cap is 5000000$"):
        fl.trajectory_for_interpolation(fl.ModeSystem.lattice(2), random_unit(2, rng),
                                        1.0, dt=1e-7)


def _python(code):
    """``python -c code`` in a fresh process that imports this focklab."""
    src = str(Path(fl.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)


def test_an_infinite_span_is_refused_before_integrating():
    # integrating to t = +-inf never ends, so a regression must time out
    # here rather than hang the suite
    code = ("import numpy as np, focklab as fl\n"
            "for grid in ([0.0, np.inf], [-np.inf, 0.0]):\n"
            "    try:\n"
            "        fl.evolve_hartree(fl.ModeSystem.lattice(2), np.array([1.0, 0.0]), grid)\n"
            "    except ValueError as e:\n"
            "        print(e)\n")
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2 and all(line.startswith("t_grid times must be finite") for line in lines)


def test_a_long_span_is_refused_before_integrating():
    # |t s| = 5e6 on 2 sites used to take about 40 minutes of DOP853 steps,
    # so a regression must time out here rather than hang the suite
    code = ("import numpy as np, focklab as fl\n"
            "try:\n"
            "    fl.evolve_hartree(fl.ModeSystem.lattice(2), np.array([1.0, 0.0]), [0.0, 1e6])\n"
            "except fl.CapacityError as e:\n"
            "    print(e)\n")
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("evolve_hartree: a span of 1000000.0 asks for |t s| = 5e+06 "
                           "above 10000\n")


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


@pytest.mark.parametrize("hopping, g", [(1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (1.0, 10.0)])
def test_at_matches_a_fresh_integration(rng, hopping, g):
    ms = fl.ModeSystem.lattice(4, hopping, ("contact", g))
    phi = random_unit(4, rng)
    traj = fl.trajectory_for_interpolation(ms, phi, 2.0, tol=1e-12)
    for t in (0.3333, 1.2345, 1.9):
        probe = fl.evolve_hartree(ms, phi, np.array([0.0, t]), tol=1e-12)
        assert np.linalg.norm(traj.at(t) - probe.states[-1]) <= 1e-10


def test_at_does_not_depend_on_sampling(rng):
    ms = fl.ModeSystem.lattice(3, 2.0)
    phi = random_unit(3, rng)
    coarse = fl.evolve_hartree(ms, phi, np.array([0.0, 2.0]))
    dense = fl.trajectory_for_interpolation(ms, phi, 2.0)
    assert np.array_equal(coarse.at(1.0), dense.at(1.0))


def test_at_on_one_sample_is_the_start(rng):
    phi = random_unit(3, rng)
    traj = fl.evolve_hartree(fl.ModeSystem.lattice(3), phi, np.array([0.7]))
    assert np.array_equal(traj.at(0.7), phi)


def test_at_on_a_backward_trajectory(rng):
    ms = _random_ms(3, rng)
    phi = random_unit(3, rng)
    fwd = fl.evolve_hartree(ms, phi, np.array([0.0, 0.5, 1.0]), tol=1e-12)
    back = fl.evolve_hartree(ms, fwd.states[-1], np.array([1.0, 0.5, 0.0]), tol=1e-12)
    assert (back.t_min, back.t_max) == (0.0, 1.0)
    assert np.linalg.norm(back.at(0.5) - fwd.at(0.5)) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 5), lattice=st.booleans(),
       pot=st.sampled_from(["contact", "neighbor", "gaussian", "uniform"]),
       g=st.floats(-1e3, 1e3), hopping=st.floats(-1e3, 1e3), seed=st.integers(0, 2**32 - 1))
def test_generator_bound_covers_the_mean_field_spectrum(d, lattice, pot, g, hopping, seed):
    # the config parser bounds the integrator's steps by max(t_list) times this
    rng = np.random.default_rng(seed)
    if lattice:
        ms = fl.ModeSystem.lattice(d, hopping=hopping,
                                   potential=("gaussian", g, 1e10) if pot == "uniform" else (pot, g))
    else:
        v = np.full((d, d), g) if pot == "uniform" else g * rng.standard_normal((d, d))
        ms = fl.ModeSystem.dense(hopping * random_hermitian(d, rng), v)
    phi = random_unit(d, rng)
    generator = ms.h + np.diag(ms.mean_field_potential(phi))
    assert np.max(np.abs(np.linalg.eigvalsh(generator))) <= _generator_bound(ms) * (1 + 1e-12)


def test_a_huge_uniform_kernel_fails_in_one_line():
    # evolve_hartree refuses this system before integrating, |t s| being
    # 4e307; the integrator itself still reports the step-size collapse as
    # one error, without numpy warnings
    ms = fl.ModeSystem.lattice(3, hopping=1.0, potential=("gaussian", 8e307, 1e10))
    phi, grid = np.array([0.6, 0.8, 0.0], dtype=complex), np.array([0.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(fl.CapacityError, match=r"\|t s\| = 4e\+307 above"):
            fl.evolve_hartree(ms, phi, grid, tol=1e-12)
        with pytest.raises(fl.IntegrationError) as err:
            _integrate(ms, phi, grid, 1e-12)
    assert str(err.value) == ("integrator failed: Required step size is less than spacing "
                              "between numbers.")


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


# ---------------------------------------------------------------------------
# the stepper against scipy's DOP853, its oracle


def test_the_tableau_is_scipys():
    n = DOP853.n_stages
    assert np.array_equal(_A, np.vstack([np.pad(DOP853.A, ((0, 0), (0, 4))),
                                         np.pad(DOP853.B, (0, 4)), DOP853.A_EXTRA]))
    for ours, theirs in ((_B, DOP853.B), (_E3, DOP853.E3), (_E5, DOP853.E5), (_D, DOP853.D)):
        assert ours.shape == theirs.shape and np.array_equal(ours, theirs)
    assert _A.shape == (16, 16) and n == 12


def _scipy_dop853(ms, phi, t0, t1, tol, t_eval=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # scipy's note that it raised rtol
        with np.errstate(all="ignore"):
            return solve_ivp(lambda _t, y: fl.hartree_rhs(ms, y), (t0, t1), phi,
                             method="DOP853", t_eval=t_eval, rtol=tol, atol=tol * 1e-2)


def _within_the_ledger(ms, phi0, phi_t):
    """Whether phi_t keeps the norm and energy of phi0 to the drift contract."""
    e0, e_t = fl.hartree_energy(ms, phi0), fl.hartree_energy(ms, phi_t)
    return (abs(np.linalg.norm(phi_t) - np.linalg.norm(phi0)) <= NORM_DRIFT_TOL
            and abs(e_t - e0) <= ENERGY_DRIFT_TOL * max(1.0, abs(e0)))


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 5), lattice=st.booleans(),
       pot=st.sampled_from(["contact", "neighbor", "gaussian"]), g=st.floats(-4.0, 4.0),
       hopping=st.floats(-2.0, 2.0), tol=st.floats(1e-15, 1e-6),
       t0=st.sampled_from([0.0, 0.25, -1.0]), span=st.floats(-2.5, 2.5),
       points=st.integers(1, 7), frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(d=1, lattice=True, pot="contact", g=5.313786071460777e-153, hopping=0.0, tol=6.78e-7,
         t0=0.0, span=1.0, points=2, frac=0.5, seed=0)  # scipy fails here: no oracle
def test_states_and_at_are_scipys_bit_for_bit(d, lattice, pot, g, hopping, tol, t0, span,
                                              points, frac, seed):
    # forward, backward and one-point grids, tolerances on both sides of the
    # rtol floor; the sweeps' targets are these states, so any change shows
    rng = np.random.default_rng(seed)
    if lattice:
        ms = fl.ModeSystem.lattice(d, hopping=hopping, potential=(pot, g))
    else:
        ms = fl.ModeSystem.dense(hopping * random_hermitian(d, rng), g * rng.standard_normal((d, d)))
    phi = random_unit(d, rng)
    grid = np.linspace(t0, t0 + span, points)
    steps = np.diff(grid)
    if not (np.all(steps > 0) or np.all(steps < 0) or np.all(steps == 0)):
        # a span of a few ulp rounds to a grid with repeated times
        with pytest.raises(ValueError, match="strictly monotone"):
            fl.evolve_hartree(ms, phi, grid, tol=tol)
        return
    try:
        traj = fl.evolve_hartree(ms, phi, grid, tol=tol)
    except fl.IntegrationError as e:  # a loose tol may drift past the contract
        assert "drift" in str(e)
        states = _integrate(ms, phi, grid, tol).T
        traj = fl.HartreeTrajectory(ms, grid, states, None, None, tol)
    if grid[-1] == grid[0]:  # one time, perhaps repeated
        assert np.array_equal(traj.states, [phi])
    else:
        sol = _scipy_dop853(ms, phi, grid[0], grid[-1], tol, t_eval=grid)
        if sol.success:
            assert np.array_equal(sol.t, grid) and np.array_equal(traj.states, sol.y.T)
        else:  # scipy's error norm read 0/0 on a tiny generator: no oracle
            assert all(_within_the_ledger(ms, phi, state) for state in traj.states)
    # at(t) is evolve_hartree over [t0, t]: scipy's state at t on that grid,
    # refused only where that state leaves the norm/energy contract
    for t in (traj.times[-1], traj.times[0] + frac * (traj.times[-1] - traj.times[0])):
        sol = None if t == grid[0] else _scipy_dop853(ms, phi, grid[0], t, tol,
                                                      t_eval=[grid[0], t])
        want = phi if sol is None else sol.y[:, -1] if sol.success else None
        try:
            got = traj.at(t)
        except fl.IntegrationError as e:
            assert "drift" in str(e) and want is not None and not _within_the_ledger(ms, phi, want)
        else:
            if want is None:
                assert _within_the_ledger(ms, phi, got)
            else:
                assert np.array_equal(got, want)


def test_a_generator_whose_error_estimates_underflow_integrates():
    # on a 1-site contact kernel of g ~ 5e-153 both error estimates of a step
    # are 0 or subnormal; scipy's error norm reads 0/0 there and fails most
    # of these phases with "Required step size is less than spacing between
    # numbers", where each step is exact: phi_1 = e^{-i g} phi_0 = phi_0
    ms = fl.ModeSystem.lattice(1, hopping=0.0, potential=("contact", 5.313786071460777e-153))
    for phase in np.random.default_rng(0).uniform(0, 2 * np.pi, 200):
        phi = np.array([np.exp(1j * phase)])
        traj = fl.evolve_hartree(ms, phi, [0.0, 1.0], tol=6.78e-7)
        assert np.array_equal(traj.states, [phi, phi])


def test_a_tolerance_below_the_floor_is_raised_without_a_warning(rng):
    ms = _random_ms(3, rng)
    phi = random_unit(3, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        floored = fl.evolve_hartree(ms, phi, np.linspace(0.0, 1.0, 3), tol=1e-16)
    # rtol rises to 100 eps while atol stays tol / 100
    sol = _scipy_dop853(ms, phi, 0.0, 1.0, 1e-16, t_eval=np.linspace(0.0, 1.0, 3))
    assert np.array_equal(floored.states, sol.y.T)
