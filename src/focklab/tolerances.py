"""Every numerical tolerance of the library, each defined once, and the
unit-norm check.

The other modules' checks compare against these values only, each in the
form ``not value <= TOL`` (or ``>=`` for a floor), so that a NaN fails it.
They rely on the following relations, which ``tests/test_tolerances.py``
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
* ``DEFAULT_KRYLOV_TOL`` is both the default and the loosest propagation
  tolerance: the config parser and ``dynamics.make_plan`` bound
  ``krylov_tol`` by it.
* ``16 * SERIES_STOP_TOL < eps < DEFAULT_KRYLOV_TOL``, with eps the
  double-precision machine epsilon.  ``dynamics.evolve_fock`` stops its
  Chebyshev series at the first index past |t r| where |J_k(t r)| <
  SERIES_STOP_TOL; the dropped tail, at most 2 sum |J_k(t r)| ||v||, stays
  below 16 * SERIES_STOP_TOL * ||v|| for |t r| <= 1e4.  So the norm defect
  the propagation checks against ``krylov_tol`` is rounding alone.
"""

import numpy as np

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
NORM_DRIFT_TOL = 1e-8  # largest mean-field norm drift
ENERGY_DRIFT_TOL = 1e-6  # largest mean-field energy drift, relative to max(1, |E_0|)
NONREAL_ENERGY_TOL = 1e-12  # largest |Im E|, relative to max(1, |Re E|)

DEFAULT_KRYLOV_TOL = 1e-10  # also the loosest norm-defect tolerance accepted
SERIES_STOP_TOL = 1e-18  # the Chebyshev propagator stops at a Bessel coefficient this small
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
