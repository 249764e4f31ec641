"""Discretized one-particle space: d modes, one-body matrix h, two-body kernel v.

The two-body kernel is position-diagonal: the pair (p, q) interacts with
strength v(p, q) = v(q, p), i.e. the interaction operator multiplies by the
kernel value instead of carrying a general 4-index tensor.  Everything is
dimensionless (hbar = 1).
"""

from dataclasses import dataclass

import numpy as np

from .tolerances import check_capacity, check_hermitian


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
        check_hermitian(h, "h")
        if not np.array_equal(v, v.T):
            raise ValueError("v must be exactly symmetric")
        # (h + h^H)/2, halved first so that no entry can overflow; it is h
        # itself, bit for bit, when h is Hermitian with normal entries
        object.__setattr__(self, "h", h / 2.0 + h.conj().T / 2.0)
        object.__setattr__(self, "v", v)

    @staticmethod
    def dense(h, v):
        """Explicit matrices; ``v`` is symmetrized exactly via v/2 + v.T/2,
        halved first so that no entry can overflow."""
        h = np.asarray(h, dtype=complex)
        v = np.asarray(v, dtype=float)
        v = v / 2.0 + v.T / 2.0
        return ModeSystem(d=h.shape[0], h=h, v=v)

    @staticmethod
    def lattice(sites, hopping=1.0, potential=("contact", 1.0)):
        """Periodic 1D lattice with ``sites`` points.

        ``sites`` is an int >= 1 (a bool or a float, 2.0 included, raises
        ValueError) with ``sites**2``, the entries of ``h``, within the state
        cap; a larger lattice raises CapacityError before any d x d array is
        allocated.  The one-body part is the discrete Laplacian
        ``hopping * (2*I - shifts)``.  ``potential`` selects the pair kernel:

        * ``("contact", g)``          -- v(p, q) = g * delta_pq
        * ``("neighbor", g)``         -- g on nearest-neighbor pairs (periodic)
        * ``("gaussian", g[, s])``    -- g * exp(-dist(p,q)^2 / (2 s^2)),
          with the width s > 0 defaulting to 1; a width whose square
          underflows gives the contact kernel g * delta_pq

        Each kernel is symmetric as built and kept as given, so a finite g
        near the float limit stays finite.

        Any other kind, a sigma on contact or neighbor, or a sigma <= 0 raises
        a one-line ValueError that names the kind or sigma.
        """
        if type(sites) is not int or sites < 1:
            raise ValueError(f"sites: expected an integer >= 1, got {sites!r}")
        check_capacity(sites**2, f"h of {sites} sites")
        kind, g, s, *extra = (*potential, 1.0)  # the gaussian width s defaults to 1
        if kind not in ("contact", "neighbor", "gaussian"):
            raise ValueError(f"unknown pair potential kind {kind!r}")
        if len(extra) > (kind == "gaussian") or not s > 0:
            raise ValueError(f"sigma: one width > 0, for a gaussian only; got {potential!r}")
        h = 2.0 * np.eye(sites, dtype=complex)
        for p in range(sites):
            h[p, (p + 1) % sites] -= 1.0
            h[p, (p - 1) % sites] -= 1.0
        h *= hopping

        dist = np.abs(np.arange(sites)[:, None] - np.arange(sites)[None, :])
        dist = np.minimum(dist, sites - dist)
        if kind == "contact":
            v = g * np.eye(sites)
        elif kind == "neighbor":
            v = g * (dist == 1).astype(float)
        else:  # the exponent off the diagonal only, where 2 s^2 = 0 sends it to -inf
            with np.errstate(all="ignore"):
                v = g * np.exp(-np.where(dist > 0, dist.astype(float) ** 2 / (2.0 * s * s), 0.0))
        return ModeSystem(d=sites, h=h, v=v)

    def mean_field_potential(self, phi):
        """(v * |phi|^2)(p) = sum_q v(p, q) |phi_q|^2."""
        return self.v @ np.abs(np.asarray(phi)) ** 2
