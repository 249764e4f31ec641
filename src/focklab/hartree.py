"""Mean-field dynamics on the mode basis.

    i d/dt phi_p = (h phi)_p + (sum_q v(p,q) |phi_q|^2) phi_p

integrated with an adaptive 8th-order explicit Runge-Kutta scheme (DOP853)
with conservation monitoring: the norm and the energy

    E(phi) = <phi, h phi> + 1/2 sum_pq v(p,q) |phi_p|^2 |phi_q|^2

are logged at every output time and a drift beyond contract kills the run.
Units: hbar = 1, dimensionless time.
"""

import csv
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IntegrationError
from .modes import ModeSystem
from .tolerances import (DEFAULT_HARTREE_TOL, ENERGY_DRIFT_TOL, NONREAL_ENERGY_TOL,
                         NORM_DRIFT_TOL, TIME_TOL, check_unit)


def hartree_rhs(ms: ModeSystem, phi):
    """-i [ h phi + (v * |phi|^2) phi ]."""
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (ms.d,):
        raise ValueError(f"phi must have length d={ms.d}")
    return -1j * (ms.h @ phi + ms.mean_field_potential(phi) * phi)


def hartree_energy(ms: ModeSystem, phi):
    """<phi, h phi> + 1/2 sum_pq v(p,q)|phi_p|^2 |phi_q|^2 (real)."""
    phi = np.asarray(phi, dtype=complex)
    dens = np.abs(phi) ** 2
    e = np.vdot(phi, ms.h @ phi) + 0.5 * dens @ ms.v @ dens
    if not abs(e.imag) <= NONREAL_ENERGY_TOL * max(1.0, abs(e.real)):
        raise IntegrationError(f"energy came out non-real: {e}")
    return float(e.real)


@dataclass
class HartreeTrajectory:
    """Time-sampled mean-field solution with its conserved-quantity ledger."""

    ms: ModeSystem
    times: np.ndarray          # output grid
    states: np.ndarray         # (len(times), d) complex
    norm_log: np.ndarray
    energy_log: np.ndarray
    tol: float                 # integrator rtol the samples were made with

    @property
    def t_min(self):
        return float(np.min(self.times))

    @property
    def t_max(self):
        return float(np.max(self.times))

    def at(self, t):
        """phi_t for any t the trajectory covers, integrated from the first
        sample with the trajectory's own tolerance; the sampling plays no part.
        """
        if not self.t_min - TIME_TOL <= t <= self.t_max + TIME_TOL:
            raise IntegrationError(
                f"time {t} outside stored trajectory [{self.t_min}, {self.t_max}]"
            )
        return _integrate(self.ms, self.states[0], (self.times[0], t), self.tol).y[:, -1]

    def to_csv(self, path):
        """Columns: t, Re phi_p, Im phi_p (p = 0..d-1), norm, energy."""
        d = self.ms.d
        header = ["t"]
        for p in range(d):
            header += [f"re_phi_{p}", f"im_phi_{p}"]
        header += ["norm", "energy"]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            for i, t in enumerate(self.times):
                row = [repr(float(t))]
                for p in range(d):
                    row += [repr(float(self.states[i, p].real)),
                            repr(float(self.states[i, p].imag))]
                row += [repr(float(self.norm_log[i])), repr(float(self.energy_log[i]))]
                w.writerow(row)


def evolve_hartree(ms: ModeSystem, phi0, t_grid, tol=DEFAULT_HARTREE_TOL):
    """Integrate the mean-field equation over t_grid (may run backwards).

    Raises IntegrationError on step-size collapse or when the norm drifts by
    more than NORM_DRIFT_TOL (energy: ENERGY_DRIFT_TOL) anywhere on the output
    grid.
    """
    phi0 = check_unit(phi0, "phi0")
    if not 0 < tol < np.inf:  # a nan tolerance would never let the integrator finish
        raise ValueError("tol must be finite and positive")
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if len(t_grid) == 1 or np.all(t_grid == t_grid[0]):
        states = np.array([phi0])
        return _finish(ms, np.array([t_grid[0]]), states, tol)
    if not (np.all(np.diff(t_grid) > 0) or np.all(np.diff(t_grid) < 0)):
        raise ValueError("t_grid must be strictly monotone")

    sol = _integrate(ms, phi0, (t_grid[0], t_grid[-1]), tol, t_eval=t_grid)
    return _finish(ms, sol.t, sol.y.T, tol)


def _integrate(ms, phi0, t_span, tol, t_eval=None):
    """The DOP853 solution over t_span, at t_eval or else at every step end.
    A blow-up shows as the failure below, not as numpy warnings, and the
    drift checks of ``_finish`` catch any NaN."""
    with np.errstate(all="ignore"):
        sol = solve_ivp(
            lambda _t, y: hartree_rhs(ms, y),
            t_span,
            phi0,
            method="DOP853",
            t_eval=t_eval,
            rtol=tol,
            atol=tol * 1e-2,
        )
    if not sol.success:
        raise IntegrationError(f"integrator failed: {sol.message}")
    return sol


def _finish(ms, times, states, tol):
    norms = np.linalg.norm(states, axis=1)
    energies = np.array([hartree_energy(ms, s) for s in states])
    drift = np.max(np.abs(norms - norms[0]))
    if not drift <= NORM_DRIFT_TOL:
        raise IntegrationError(
            f"norm drift {drift:.3e} exceeds {NORM_DRIFT_TOL} "
            f"(t in [{times[0]}, {times[-1]}])"
        )
    e_drift = np.max(np.abs(energies - energies[0]))
    if not e_drift <= ENERGY_DRIFT_TOL * max(1.0, abs(energies[0])):
        raise IntegrationError(
            f"energy drift {e_drift:.3e} exceeds {ENERGY_DRIFT_TOL}"
        )
    return HartreeTrajectory(
        ms=ms,
        times=np.asarray(times, dtype=float),
        states=np.asarray(states, dtype=complex),
        norm_log=norms,
        energy_log=energies,
        tol=tol,
    )


def trajectory_for_interpolation(ms, phi0, t_max, tol=DEFAULT_HARTREE_TOL, dt=0.01):
    """Trajectory over [0, t_max] with the norm/energy ledger sampled every dt.

    ``at`` integrates to any time in the window at ``tol``, so dt sets only
    how densely the conservation ledger is checked and exported.
    """
    n_steps = max(2, int(np.ceil(t_max / dt)) + 1)
    grid = np.linspace(0.0, t_max, n_steps)
    return evolve_hartree(ms, phi0, grid, tol=tol)
