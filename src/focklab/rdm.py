"""One-particle reduced density matrices, distances, and mixture targets.

On the mode basis the transition matrix is T_pq = <v, a+_p a_q v>; the
reduced density matrix follows the kernel convention rho(x; y) = T(y, x)/Tr T,
i.e. as matrices rho = T^T / <N>.  The trace of T equals <N>, so rho has unit
trace for states with and without a fixed particle number alike.  Distances
between Hermitian matrices use the eigenvalues of the difference:
trace norm = sum |lam|, Hilbert-Schmidt = sqrt(sum lam^2), operator = max |lam|.
"""

from dataclasses import dataclass

import numpy as np

from .fock import FockVector, _written, ladder_apply
from .fock import ladder_matrix  # noqa: F401 -- unused; perfbench traces this import site
from .tolerances import PSD_FLOOR, TRACE_TOL, WEIGHT_SUM_TOL, check_hermitian, check_unit


@dataclass
class OneParticleDM:
    """d x d Hermitian, positive, trace-one matrix plus its raw trace <N>."""

    rho: np.ndarray
    trace_raw: float

    def __post_init__(self):
        rho = check_hermitian(np.asarray(self.rho, dtype=complex), "reduced density matrix")
        evals = np.linalg.eigvalsh(rho)
        if not evals.min() >= PSD_FLOOR:
            raise ValueError(
                f"reduced density matrix has eigenvalue {evals.min():.3e} "
                f"below the PSD floor {PSD_FLOOR}"
            )
        if not abs(np.trace(rho).real - 1.0) <= TRACE_TOL:
            raise ValueError("reduced density matrix does not have unit trace")
        self.rho = rho

    @property
    def d(self):
        return self.rho.shape[0]

    def to_json(self, path=None):
        """Hermitian-packed layout: real diagonal plus upper triangle [re, im]."""
        d = self.d
        upper = []
        for p in range(d):
            for q in range(p + 1, d):
                upper.append([float(self.rho[p, q].real), float(self.rho[p, q].imag)])
        doc = {
            "d": d,
            "diag": [float(self.rho[p, p].real) for p in range(d)],
            "upper": upper,
            "trace_raw": float(self.trace_raw),
        }
        return _written(doc, path)


def transition_matrix(v: FockVector):
    """T_pq = <v, a+_p a_q v> = <a_p v, a_q v>; Hermitian with trace <N>.

    T = W^H W, where column p of W is ``ladder_apply("annihilate", p, v)``
    (on the basis itself when truncated, on fixed(n - 1) for a fixed(n)
    sector).  A basis with n_max = 0 holds only the vacuum: T = 0.
    """
    d = v.basis.d
    if v.basis.n_max == 0:
        return np.zeros((d, d), dtype=complex)
    W = np.stack([ladder_apply("annihilate", p, v).coeffs for p in range(d)], axis=1)
    return W.conj().T @ W


def reduced_dm(v: FockVector):
    """Normalized one-particle reduced density matrix of a Fock vector."""
    T = transition_matrix(v)
    tr = float(np.trace(T).real)
    if tr <= 0:
        raise ValueError("vacuum input: <N> = 0, no reduced density matrix")
    return OneParticleDM(rho=T.T / tr, trace_raw=tr)


def distance(rho1, rho2, norm="trace"):
    """Distance between two density matrices in the chosen norm.

    Accepts OneParticleDM or plain arrays Hermitian to HERMITICITY_TOL (any
    other array raises ValueError: the eigenvalues read one triangle); norms
    satisfy operator <= hilbert_schmidt <= trace, and trace <= 2 *
    hilbert_schmidt whenever one argument is a rank-one projection.
    """
    a, b = (r.rho if isinstance(r, OneParticleDM) else check_hermitian(np.asarray(r), "matrix")
            for r in (rho1, rho2))
    if a.shape != b.shape:
        raise ValueError("density matrices have different dimensions")
    evals = np.linalg.eigvalsh(a - b)
    if norm == "trace":
        return float(np.sum(np.abs(evals)))
    if norm == "hilbert_schmidt":
        return float(np.sqrt(np.sum(evals**2)))
    if norm == "operator":
        return float(np.max(np.abs(evals)))
    raise ValueError(f"unknown norm {norm!r}")


def mixed_target(weights, phis):
    """sum_i w_i |phi_i><phi_i| for nonnegative weights summing to one."""
    weights = np.asarray(weights, dtype=float)
    if not np.all(weights >= 0):
        raise ValueError("weights must be nonnegative")
    if not abs(np.sum(weights) - 1.0) <= WEIGHT_SUM_TOL:
        raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}")
    phis = [check_unit(p, "mixture component") for p in phis]
    if len(phis) != len(weights):
        raise ValueError("need one state per weight")
    d = len(phis[0])
    rho = np.zeros((d, d), dtype=complex)
    for w, p in zip(weights, phis):
        rho += w * np.outer(p, p.conj())
    return OneParticleDM(rho=rho, trace_raw=1.0)


def projector(phi):
    """|phi><phi| as a OneParticleDM."""
    return mixed_target([1.0], [phi])
