"""Discretized one-particle space: d modes, one-body matrix h, two-body kernel v.

The two-body kernel is position-diagonal: the pair (p, q) interacts with
strength v(p, q) = v(q, p), i.e. the interaction operator multiplies by the
kernel value instead of carrying a general 4-index tensor.  Everything is
dimensionless (hbar = 1).
"""

from dataclasses import dataclass

import numpy as np

from .tolerances import HERMITICITY_TOL


@dataclass(frozen=True)
class ModeSystem:
    """d modes with one-body energy ``h`` (d x d Hermitian) and pair kernel ``v``.

    ``h`` is stored as its exact Hermitian part, so that every operator built
    from it is Hermitian entry for entry; ``v`` as a symmetric real d x d
    matrix of kernel values.
    """

    d: int
    h: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=complex)
        v = np.asarray(self.v, dtype=float)
        if self.d < 1:
            raise ValueError("mode count must be >= 1")
        if h.shape != (self.d, self.d) or v.shape != (self.d, self.d):
            raise ValueError(f"h and v must be {self.d}x{self.d}")
        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(v))):
            raise ValueError("h and v must have finite entries")
        if not np.max(np.abs(h - h.conj().T)) <= HERMITICITY_TOL:
            raise ValueError(f"h is not Hermitian to {HERMITICITY_TOL}")
        if not np.array_equal(v, v.T):
            raise ValueError("v must be exactly symmetric")
        # (h + h^H)/2, halved first so that no entry can overflow; it is h
        # itself, bit for bit, when h is Hermitian with normal entries
        object.__setattr__(self, "h", h / 2.0 + h.conj().T / 2.0)
        object.__setattr__(self, "v", v)

    @staticmethod
    def dense(h, v):
        """Explicit matrices; ``v`` is symmetrized exactly via (v + v.T)/2."""
        h = np.asarray(h, dtype=complex)
        v = np.asarray(v, dtype=float)
        v = (v + v.T) / 2.0
        return ModeSystem(d=h.shape[0], h=h, v=v)

    @staticmethod
    def lattice(sites, hopping=1.0, potential=("contact", 1.0)):
        """Periodic 1D lattice with ``sites`` points.

        The one-body part is the discrete Laplacian ``hopping * (2*I - shifts)``.
        ``potential`` selects the pair kernel:

        * ``("contact", g)``      -- v(p, q) = g * delta_pq
        * ``("neighbor", g)``     -- g on nearest-neighbor pairs (periodic)
        * ``("gaussian", g, s)``  -- g * exp(-dist(p,q)^2 / (2 s^2))
        """
        L = int(sites)
        if L < 1:
            raise ValueError("need at least one site")
        h = 2.0 * np.eye(L, dtype=complex)
        for p in range(L):
            h[p, (p + 1) % L] -= 1.0
            h[p, (p - 1) % L] -= 1.0
        h *= hopping

        kind = potential[0]
        dist = np.abs(np.arange(L)[:, None] - np.arange(L)[None, :])
        dist = np.minimum(dist, L - dist)
        if kind == "contact":
            v = potential[1] * np.eye(L)
        elif kind == "neighbor":
            v = potential[1] * (dist == 1).astype(float)
        elif kind == "gaussian":
            g, s = potential[1], potential[2]
            v = g * np.exp(-(dist.astype(float) ** 2) / (2.0 * s * s))
        else:
            raise ValueError(f"unknown pair potential kind {kind!r}")
        v = (v + v.T) / 2.0
        return ModeSystem(d=L, h=h, v=v)

    def mean_field_potential(self, phi):
        """(v * |phi|^2)(p) = sum_q v(p, q) |phi_q|^2."""
        return self.v @ np.abs(np.asarray(phi)) ** 2
