"""Mean-field dynamics on the mode basis.

    i d/dt phi_p = (h phi)_p + (sum_q v(p,q) |phi_q|^2) phi_p

integrated with conservation monitoring: the norm and the energy

    E(phi) = <phi, h phi> + 1/2 sum_pq v(p,q) |phi_p|^2 |phi_q|^2

are logged at every output time and a drift beyond contract kills the run.
Units: hbar = 1, dimensionless time.

The integrator is DOP853, the explicit Runge-Kutta pair of order 8(5,3) of
Hairer, Norsett & Wanner, *Solving Ordinary Differential Equations I*, 2nd
ed., Springer 1993, section II.5, with its degree-7 dense output.  Its
tableau, its first-step guess (section II.4), its error norm and its step
control (safety 0.9, step factors within [0.2, 10], exponent -1/8, no step
below 10 ulp of t) are those of SciPy's DOP853 solver, operation for
operation, with one rule changed: the error norm is 0 whenever the
order-5 estimate is, where SciPy's reads 0/0 = NaN once the order-3 one
is subnormal (a generator of about 1e-153), and the step then fails.  So
wherever SciPy's initial-value solver with method "DOP853" returns a
solution, phi_t is that solution bit for bit (``tests/test_hartree.py``
holds it as the oracle).  The relative tolerance is the caller's ``tol``
raised to HARTREE_RTOL_FLOOR = 100 eps (about 2.2e-14) where it is
smaller, as scipy does but without its warning; the absolute tolerance is
``tol * 1e-2``.
"""

from dataclasses import dataclass
from math import ceil

import numpy as np

from .errors import IntegrationError
from .fock import _written_csv
from .modes import ModeSystem
from .tolerances import (DEFAULT_HARTREE_TOL, ENERGY_DRIFT_TOL, FIRST_STEP_DEFAULT,
                         FIRST_STEP_ZERO_TOL, HARTREE_RTOL_FLOOR, NONREAL_ENERGY_TOL,
                         NORM_DRIFT_TOL, TIME_TOL, check_capacity, check_time_radius,
                         check_unit)


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


def _generator_bound(ms: ModeSystem):
    """An upper bound s on the spectral radius of the generator h + diag(v
    |phi|^2) for every unit phi: the largest absolute row sum of h bounds
    the norm of h, and each entry of v |phi|^2 is a mean of a row of v with
    the weights |phi_q|^2.  An explicit integrator takes on the order of
    |t| s steps to time t."""
    return float(np.abs(ms.h).sum(axis=1).max() + np.abs(ms.v).max())


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
        """phi_t for any t the trajectory covers: the last state of
        ``evolve_hartree`` from the first sample to t with the trajectory's
        own tolerance, so the sampling plays no part and the ledger checks it.
        """
        if not self.t_min - TIME_TOL <= t <= self.t_max + TIME_TOL:
            raise IntegrationError(
                f"time {t} outside stored trajectory [{self.t_min}, {self.t_max}]"
            )
        return evolve_hartree(self.ms, self.states[0], [self.times[0], t], self.tol).states[-1]

    def to_csv(self, path):
        """Columns: t, Re phi_p, Im phi_p (p = 0..d-1), norm, energy."""
        parts = [f"{part}_phi_{p}" for p in range(self.ms.d) for part in ("re", "im")]
        pairs = np.ascontiguousarray(self.states, dtype=complex).view(float)  # re, im, ...
        _written_csv(path, ["t", *parts, "norm", "energy"], np.column_stack(
            [self.times, pairs, self.norm_log, self.energy_log]))


def evolve_hartree(ms: ModeSystem, phi0, t_grid, tol=DEFAULT_HARTREE_TOL):
    """Integrate the mean-field equation over t_grid (may run backwards).

    Raises ValueError for a grid that is empty or not 1-D or a time that is
    not finite, CapacityError when the span |t_end - t_start| times
    ``_generator_bound(ms)`` exceeds MAX_TIME_RADIUS, and IntegrationError
    on step-size collapse or when the norm drifts by more than
    NORM_DRIFT_TOL (energy: ENERGY_DRIFT_TOL) anywhere on the output grid.
    """
    phi0 = check_unit(phi0, "phi0")
    if not 0 < tol < np.inf:  # a nan tolerance would never let the integrator finish
        raise ValueError("tol must be finite and positive")
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t_grid.ndim != 1 or not t_grid.size:
        raise ValueError(f"t_grid must be a non-empty 1-D list of times, got shape {t_grid.shape}")
    if not np.all(np.isfinite(t_grid)):  # an infinite span would never finish
        raise ValueError(f"t_grid times must be finite, got {t_grid}")
    if len(t_grid) == 1 or np.all(t_grid == t_grid[0]):
        states = np.array([phi0])
        return _finish(ms, np.array([t_grid[0]]), states, tol)
    if not (np.all(np.diff(t_grid) > 0) or np.all(np.diff(t_grid) < 0)):
        raise ValueError("t_grid must be strictly monotone")
    check_time_radius(t_grid[-1] - t_grid[0], _generator_bound(ms),
                      f"evolve_hartree: a span of {t_grid[-1] - t_grid[0]} asks for |t s|")
    return _finish(ms, t_grid, _integrate(ms, phi0, t_grid, tol).T, tol)


# The DOP853 tableau: _A[s, :s] are the stage weights of stage s, row 12
# holds the weights of the order-8 solution, rows 13-15 the three extra
# stages of the dense output.  The equation is autonomous, so the nodes
# c_s never enter.
_A = np.array([[row.get(j, 0.0) for j in range(16)] for row in (
    {},
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596, 5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
     5: -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
     5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
     5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
     8: -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
     5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
     8: 2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
     5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
     8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
    {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
     7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
     10: 0.20136540080403034, 11: 0.04471061572777259},
    {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
     8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
     11: 0.007567897660545699, 12: -0.008298},
    {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
     7: -0.05492374857139099, 10: -0.00010834732869724932, 11: 0.0003825710908356584,
     12: -0.00034046500868740456, 13: 0.1413124436746325},
    {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
     7: 4.06898981839711, 8: 0.3567271874552811, 12: -0.0013990241651590145,
     13: 2.9475147891527724, 14: -9.15095847217987},
)])
_B = _A[12, :12]
# the order-8 solution minus the order-5 and the order-3 embedded ones, per stage
_E5 = np.array([0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
                -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
                0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0])
_E3 = np.array([-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
                1.8915178993145003, -5.801203960010585, -0.4226823213237919,
                -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0])
# coefficients 3-6 of the dense-output polynomial, over the 16 stages
_D = np.array([[row.get(j, 0.0) for j in range(16)] for row in (
    {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917,
     7: 2.38466765651207, 8: 2.117034582445028, 9: -0.871391583777973,
     10: 2.2404374302607883, 11: 0.6315787787694688, 12: -0.08899033645133331,
     13: 18.148505520854727, 14: -9.194632392478356, 15: -4.436036387594894},
    {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028,
     7: -374.5467547226902, 8: -22.113666853125306, 9: 7.733432668472264,
     10: -30.674084731089398, 11: -9.332130526430229, 12: 15.697238121770845,
     13: -31.139403219565178, 14: -9.35292435884448, 15: 35.81684148639408},
    {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758,
     7: 527.8081592054236, 8: -11.57390253995963, 9: 6.8812326946963,
     10: -1.0006050966910838, 11: 0.7777137798053443, 12: -2.778205752353508,
     13: -60.19669523126412, 14: 84.32040550667716, 15: 11.99229113618279},
    {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455,
     7: 357.6391179106141, 8: 93.40532418362432, 9: -37.45832313645163,
     10: 104.0996495089623, 11: 29.8402934266605, 12: -43.53345659001114,
     13: 96.32455395918828, 14: -39.17726167561544, 15: -149.72683625798564},
)])


def _integrate(ms, phi0, t_eval, tol):
    """phi_t from phi0 at t_eval[0] by DOP853 at each time of ``t_eval``, a
    strictly monotone grid: one column per time, read from the dense output
    of the step that reached it.

    A blow-up shows as the failure below, not as numpy warnings, and the
    drift checks of ``_finish`` catch any NaN.
    """
    t0, t1 = t_eval[0], t_eval[-1]
    rtol, atol = max(tol, HARTREE_RTOL_FLOOR), tol * 1e-2
    direction = np.sign(t1 - t0)
    reached, cols = 0, []  # grid times already read, and their states

    def rhs(y):
        return hartree_rhs(ms, y)

    def rms(x):
        return np.linalg.norm(x) / x.size ** 0.5

    with np.errstate(all="ignore"):
        t, y = t0, phi0
        f = rhs(y)
        # the first step, from the state and the slope at t0 and just past it
        length = abs(t1 - t0)
        scale = atol + np.abs(y) * rtol
        d0, d1 = rms(y / scale), rms(f / scale)
        h0 = min(FIRST_STEP_DEFAULT if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, length)
        d2 = rms((rhs(y + h0 * direction * f) - f) / scale) / h0
        if d1 <= FIRST_STEP_ZERO_TOL and d2 <= FIRST_STEP_ZERO_TOL:
            h1 = max(FIRST_STEP_DEFAULT, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 8)
        h_abs = min(100 * h0, h1, length)
        K = np.empty((16, len(y)), dtype=y.dtype)  # the stages, one per row
        while True:
            min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
            h_abs, rejected = max(h_abs, min_step), False
            while True:  # shrink the step until its error estimate passes
                if h_abs < min_step:
                    raise IntegrationError("integrator failed: Required step size "
                                           "is less than spacing between numbers.")
                t_new = t + h_abs * direction
                if direction * (t_new - t1) > 0:
                    t_new = t1
                h = t_new - t
                h_abs = np.abs(h)
                K[0] = f
                for s in range(1, 12):
                    K[s] = rhs(y + np.dot(K[:s].T, _A[s, :s]) * h)
                y_new = y + h * np.dot(K[:12].T, _B)
                f_new = K[12] = rhs(y_new)
                scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
                err5 = np.linalg.norm(np.dot(K[:13].T, _E5) / scale) ** 2
                err3 = np.linalg.norm(np.dot(K[:13].T, _E3) / scale) ** 2
                # scipy's norm is 0/0 = nan when err5 is 0 and 0.01 err3
                # underflows; where it is a number at err5 = 0, it is 0
                error = (0.0 if err5 == 0 else
                         np.abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * len(scale)))
                if error < 1:
                    factor = 10 if error == 0 else min(10, 0.9 * error ** (-1 / 8))
                    h_abs *= min(1, factor) if rejected else factor
                    break
                h_abs *= max(0.2, 0.9 * error ** (-1 / 8))
                rejected = True
            # the grid times this step passed
            ahead = np.searchsorted(direction * t_eval, direction * t_new, side="right")
            if ahead > reached:
                for s in range(13, 16):  # the dense output's extra stages
                    K[s] = rhs(y + np.dot(K[:s].T, _A[s, :s]) * h)
                dy = y_new - y
                F = [dy, h * f - dy, 2 * dy - h * (f_new + f), *(h * np.dot(_D, K))]
                x = ((t_eval[reached:ahead] - t) / (t_new - t))[:, None]
                col = np.zeros((len(x), len(y)), dtype=y.dtype)
                for k, c in enumerate(reversed(F)):
                    col += c
                    col *= x if k % 2 == 0 else 1 - x
                col += y
                cols.append(col.T)
                reached = ahead
            t, y, f = t_new, y_new, f_new
            if direction * (t - t1) >= 0:
                return np.hstack(cols)


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
    how densely the conservation ledger is checked and exported.  Raises
    ValueError unless dt > 0 and t_max / dt is finite, and CapacityError
    when the grid's ceil(t_max / dt) + 1 samples exceed the state cap.
    """
    if not (dt > 0 and abs(t_max / dt) < np.inf):  # a nan t_max or dt fails too
        raise ValueError(f"need dt > 0 and a finite t_max / dt, got t_max={t_max}, dt={dt}")
    n_steps = check_capacity(max(2, ceil(t_max / dt) + 1), "trajectory_for_interpolation: t_grid")
    grid = np.linspace(0.0, t_max, n_steps)
    return evolve_hartree(ms, phi0, grid, tol=tol)
