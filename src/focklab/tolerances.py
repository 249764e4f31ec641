"""Every numerical tolerance and work cap of the library, each defined once;
the unit-norm and Hermiticity checks, and the one check of each limit.

The other modules' checks compare against these values only, each in the
form ``not value <= TOL`` (or ``>=`` for a floor), so that a NaN fails it.
The state cap and the time radius are compared here alone: every module
asks ``check_capacity`` or ``check_time_radius`` before the work they bound.
The checks rely on the following relations, which ``tests/test_tolerances.py``
pins:

* ``TRACE_TOL = WEIGHT_SUM_TOL + 3 * UNIT_NORM_TOL``.  A mixture
  sum_i w_i |phi_i><phi_i| with sum_i w_i = 1 +- WEIGHT_SUM_TOL and every
  ||phi_i|| = 1 +- UNIT_NORM_TOL has a trace within
  (1 + WEIGHT_SUM_TOL)(1 + UNIT_NORM_TOL)^2 - 1 < TRACE_TOL of one, so
  every input ``rdm.mixed_target`` accepts passes the unit-trace check of
  its result.
* ``GRAM_FLOOR <= INDEPENDENCE_TOL``.  Two product components with
  |<phi_i, phi_j>| < 1 - INDEPENDENCE_TOL have at particle number n the
  Gram eigenvalue 1 - |<phi_i, phi_j>|^n > INDEPENDENCE_TOL.  The pairwise
  parse checks cannot see a degenerate span of three or more components, or
  coherent components that are distinct but closer than the Gram floor can
  resolve; the floor catches those when a sweep cell is built.
* ``UNIT_NORM_TOL < NORM_DRIFT_TOL``.  The mean-field integrator may move
  the norm further than a unit vector may be off, so the sweeps renormalize
  the Hartree states they use as targets.
* ``DEFAULT_HARTREE_TOL`` is both the default and the loosest mean-field
  tolerance that a config may ask for: the config parser bounds
  ``hartree_tol`` by it (``check_tolerance``).  A looser mean-field
  tolerance lets the norm drift past NORM_DRIFT_TOL on an accepted config
  (3.7e-7 at 1, 3.2e-8 at 1e-6, on a 3-site gaussian lattice); at the
  default it drifted 3.2e-9 there at |t s| = 5000.
* ``16 * SERIES_STOP_TOL < eps < DEFAULT_KRYLOV_TOL``, with eps the
  double-precision machine epsilon.  ``dynamics.evolve_fock`` stops its
  Chebyshev series at the first index past |t r| where |J_k(t r)| <
  SERIES_STOP_TOL; the dropped tail, at most 2 sum |J_k(t r)| ||v||, stays
  below 16 * SERIES_STOP_TOL * ||v|| for |t r| <= MAX_TIME_RADIUS = 1e4,
  which every ``evolve_fock`` call checks.  So the norm defect that
  ``evolve_fock`` compares with ``DEFAULT_KRYLOV_TOL * ||v||`` is rounding
  alone, and no option sets that bound.
"""

import numpy as np

from .errors import CapacityError

HERMITICITY_TOL = 1e-12  # largest |A - A^H| entry of a Hermitian matrix
UNIT_NORM_TOL = 1e-10  # largest | ||phi|| - 1 | of a unit vector
ORTHOGONALITY_TOL = 1e-10  # largest ||a(conj phi) psi|| of an excitation orthogonal to phi

WEIGHT_SUM_TOL = 1e-10  # largest |sum w - 1| of mixture weights
TRACE_TOL = WEIGHT_SUM_TOL + 3 * UNIT_NORM_TOL  # largest |tr rho - 1|
PSD_FLOOR = -1e-10  # smallest eigenvalue of a density matrix

INDEPENDENCE_TOL = 1e-12  # product and theta components: |<phi_i, phi_j>| < 1 - this
DISTINCTNESS_TOL = 1e-12  # coherent components: ||phi_i - phi_j|| > this
GRAM_FLOOR = 1e-12  # smallest eigenvalue of a component Gram matrix
OVERLAP_BOUND_RTOL = 1e-9  # relative slack of the theta overlap bound
OVERLAP_BOUND_ATOL = 1e-12  # absolute slack of the theta overlap bound
POISSON_TAIL_FLOOR = 1e-16  # largest mass a coherent state may lose to truncation

DEFAULT_HARTREE_TOL = 1e-10  # mean-field integrator rtol; its atol is a hundredth
HARTREE_RTOL_FLOOR = 100 * np.finfo(float).eps  # a smaller mean-field rtol is raised to this
FIRST_STEP_DEFAULT = 1e-6  # DOP853's first step guess where the scaled state or slope is tiny
FIRST_STEP_ZERO_TOL = 1e-15  # DOP853 takes scaled slopes this small for zero
NORM_DRIFT_TOL = 1e-8  # largest mean-field norm drift
ENERGY_DRIFT_TOL = 1e-6  # largest mean-field energy drift, relative to max(1, |E_0|)
NONREAL_ENERGY_TOL = 1e-12  # largest |Im E|, relative to max(1, |Re E|)

DEFAULT_KRYLOV_TOL = 1e-10  # largest norm defect of a propagation, relative to ||v||
SERIES_STOP_TOL = 1e-18  # the Chebyshev propagator stops at a Bessel coefficient this small
# largest |t| r of a propagation, r the Gershgorin half-width of H - D, and
# largest |t| s of a mean-field integration, s bounding its generator's spectral radius
MAX_TIME_RADIUS = 1e4
DEFAULT_STATE_CAP = 5_000_000  # most basis states, h entries or Weyl grid entries held
TIME_TOL = 1e-12  # two times closer than this are the same time
# exact-regime distances read 4e-14 from rounding alone; a slope fit to them is noise
EXACT_REGIME_TOL = 1e-12  # largest trace distance that counts as the exact regime


def check_unit(phi, what="phi"):
    """``phi`` as a complex array; ValueError unless its norm is 1 to
    UNIT_NORM_TOL."""
    phi = np.asarray(phi, dtype=complex)
    if not abs(np.linalg.norm(phi) - 1.0) <= UNIT_NORM_TOL:
        raise ValueError(f"{what} must be normalized to 1 +- {UNIT_NORM_TOL}")
    return phi


def check_hermitian(a, what):
    """``a``, a dense or scipy-sparse square matrix, unchanged; ValueError
    unless its largest |A - A^H| entry is at most HERMITICITY_TOL."""
    if not abs(a - a.conj().T).max() <= HERMITICITY_TOL:
        raise ValueError(f"{what} is not Hermitian to {HERMITICITY_TOL}")
    return a


def check_tolerance(tol, loosest, what):
    """``tol`` unchanged; ValueError unless 0 < tol <= ``loosest``."""
    if not 0 < tol <= loosest:
        raise ValueError(f"{what} must lie in (0, {loosest}]")
    return tol


def check_capacity(count, what):
    """``count`` unchanged; CapacityError unless it is at most
    DEFAULT_STATE_CAP.  Callers ask before allocating what ``count`` sizes."""
    if not count <= DEFAULT_STATE_CAP:
        raise CapacityError(f"{what} has {count} entries, cap is {DEFAULT_STATE_CAP}")
    return count


def check_time_radius(t, radius, what):
    """CapacityError unless |t| ``radius`` is at most MAX_TIME_RADIUS, where
    ``radius`` bounds the spectral radius of the generator that a solver
    runs for time t: its work grows as |t| radius.  t = 0 passes with any
    radius, an infinite one included."""
    if t and not abs(t) * radius <= MAX_TIME_RADIUS:
        raise CapacityError(f"{what} = {abs(t) * radius:.3g} above {MAX_TIME_RADIUS:g}")
