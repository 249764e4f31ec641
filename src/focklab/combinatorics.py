"""Closed-form combinatorics of the partially factorized states.

Everything factorial-shaped is done with log-gamma so every value stays
finite up to n = 10^6.  The displaced-state coefficient family A_k is produced by a
self-normalized three-term recurrence (a Charlier-polynomial recurrence with
the normalizing prefactor folded in), which keeps every intermediate in
[-1, 1]; the alternating Laguerre sum is only ever used as an
extended-precision test oracle because of its catastrophic cancellation.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import exp, factorial, fsum, isqrt, lgamma, log, sqrt

import numpy as np


def laguerre(k, alpha, x):
    """Generalized Laguerre polynomial L_k^(alpha)(x), alpha > -1.

    Stable three-term recurrence
    (k+1) L_{k+1} = (2k + 1 + alpha - x) L_k - (k + alpha) L_{k-1}.
    """
    if k < 0:
        raise ValueError("degree must be >= 0")
    if not alpha > -1:
        raise ValueError("parameter must be > -1")
    prev, curr = 0.0, 1.0  # L_{-1} = 0, L_0 = 1
    for j in range(k):
        prev, curr = curr, ((2 * j + 1 + alpha - x) * curr - (j + alpha) * prev) / (j + 1)
    return float(curr)


def log_dnm(n, m):
    """log of d_{n,m} = sqrt((n-m)!) * e^{n/2} / n^{(n-m)/2}.

    For n -> infinity at fixed m this behaves as (2 pi (n-m))^{1/4}
    (Stirling); the e^{m/2} often quoted as the growth factor cancels
    exactly against the (1 - m/n)^{(n-m)/2} piece.
    """
    if not 0 <= m <= n or n < 1:
        raise ValueError("need 1 <= n and 0 <= m <= n")
    return 0.5 * lgamma(n - m + 1) + 0.5 * n - 0.5 * (n - m) * log(n)


def admissible_m(n):
    """Largest excitation size for which the coefficient bounds are valid.

    floor(sqrt(7 + 3n) - 3) clamped at 0, via exact integer sqrt (the
    inequality is non-strict, so exact squares are admitted).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return max(0, isqrt(7 + 3 * n) - 3)


def _check_admissible(m, n):
    """ValueError unless the excitation size m is at most ``admissible_m(n)``."""
    if m > admissible_m(n):
        raise ValueError(f"m={m} exceeds admissible bound {admissible_m(n)} at n={n}")


@dataclass(frozen=True)
class ThetaCoefficients:
    """Sector-norm coefficients A_0..A_{n-m} of the displaced state.

    A_k is the norm of the (k+m)-particle component of
    C*(sqrt(n) phi) theta_{n,m}; it depends on (n, m, k) only, not on the
    actual phi or excitation data.
    """

    n: int
    m: int
    log_dnm: float
    a: np.ndarray

    def sum_sq(self):
        return float(np.sum(self.a**2))


def theta_weyl_coefficients(n, m):
    """Full vector A_0..A_{n-m}, pure function of (n, m).

    Uses the recurrence for the signed, pre-normalized coefficients
        b_{k+1} = (k + m) / sqrt(n (k+1)) * b_k - sqrt(k / (k+1)) * b_{k-1},
    seeded with b_{-1} = 0 and b_0 = 1/d_{n,m};
    A_k = |b_k|.  Equivalent to the log-domain Laguerre expression but free
    of overflow and cancellation blow-up.
    """
    ld = log_dnm(n, m)
    K = n - m
    k = np.arange(K, dtype=float)
    up = ((k + m) / np.sqrt(n * (k + 1.0))).tolist()
    back = np.sqrt(k / (k + 1.0)).tolist()
    b = [0.0, exp(-ld)]  # b_{-1}, b_0, ...: Python floats, faster than numpy scalars
    for u, w in zip(up, back):
        b.append(u * b[-1] - w * b[-2])
    return ThetaCoefficients(n=n, m=m, log_dnm=ld, a=np.abs(np.array(b[1:])))


@dataclass(frozen=True)
class KrasikovBound:
    bound: float
    valid: bool


def krasikov_bound(k, alpha, x):
    """Sharp pointwise envelope for |L_k^(alpha)(x)| on (q^2, s^2).

    s = sqrt(k+alpha+1) + sqrt(k), q = sqrt(k+alpha+1) - sqrt(k),
    r(x) = (x - q^2)(s^2 - x),
    bound = sqrt((k+alpha)!/k!) sqrt(x (s^2-q^2)/r(x)) e^{x/2} x^{-(alpha+1)/2}.

    Validity is reported, never raised; outside the window the bound value is
    meaningless and set to inf.
    """
    if k < 2:
        raise ValueError("the envelope needs k >= 2")
    if not alpha > -1:
        raise ValueError("parameter must be > -1")
    s = sqrt(k + alpha + 1.0) + sqrt(k)
    q = sqrt(k + alpha + 1.0) - sqrt(k)
    if not q * q < x < s * s:
        return KrasikovBound(bound=float("inf"), valid=False)
    r = (x - q * q) * (s * s - x)
    log_b = (
        0.5 * (lgamma(k + alpha + 1.0) - lgamma(k + 1.0))
        + 0.5 * (log(x) + log(s * s - q * q) - log(r))
        + 0.5 * x
        - 0.5 * (alpha + 1.0) * log(x)
    )
    return KrasikovBound(bound=exp(log_b), valid=True)


def harmonic_number(s, N):
    """Generalized harmonic number H_s(N) = sum_{j=1}^N j^{-s}."""
    if not N >= 1:
        raise ValueError("N must be >= 1")
    j = np.arange(1, N + 1, dtype=float)
    return float(np.sum(j**-s))


# B_2k / (2k)! for k = 1..8, B_2k the Bernoulli numbers
_EULER_MACLAURIN = tuple(float(Fraction(b) / factorial(2 * k)) for k, b in enumerate(
    ("1/6", "-1/30", "1/42", "-1/30", "5/66", "-691/2730", "7/6", "-3617/510"), 1))


def zeta(s):
    """Riemann zeta for s > 1 by Euler-Maclaurin summation at N = 16:
    sum_{j < N} j^-s + N^(1-s) / (s - 1) + N^-s / 2 plus, for k = 1..8,
    B_2k / (2k)! s (s + 1) ... (s + 2k - 2) N^(-s-2k+1).  The first term left
    out is below 1e-19 of the sum for s near 1 and smaller beyond; the terms
    are added with ``math.fsum``."""
    if not s > 1:
        raise ValueError("zeta needs s > 1")
    s, N = float(s), 16
    terms = [j ** -s for j in range(1, N)] + [N ** (1 - s) / (s - 1), N ** -s / 2]
    rising, power = s, N ** (-s - 1)
    for k, c in enumerate(_EULER_MACLAURIN, 1):
        if power == 0:  # so is every later term, and rising may overflow
            break
        terms.append(c * rising * power)
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        power /= N * N
    return fsum(terms)


@dataclass(frozen=True)
class WeightedMoment:
    lhs: float
    rhs: float


def weighted_number_moment(n, m, delta):
    """Both sides of the inverse-number-weighted moment bound.

    lhs: sum_{k=0}^{n-m} A_k^2 / (k+m+1)^delta plus the worst-case tail
    (n-m+2)^{-delta} for the mass above k = n-m.

    rhs: the explicit bracket
        d_{n,m}^{-2} (1 + m/sqrt(n))
        + (sqrt(2)/2 - 1/2)^{-1} (n-m+1)^{-1/2} (H_{delta+1/2}(n-m+1) - 1)
        + (n-m+2)^{-delta}.
    """
    _check_admissible(m, n)
    if not delta > 0.25:
        raise ValueError("delta must be 1/4 + eps with eps > 0")
    coeff = theta_weyl_coefficients(n, m)
    k = np.arange(n - m + 1, dtype=float)
    tail = (n - m + 2.0) ** (-delta)
    lhs = float(np.sum(coeff.a**2 / (k + m + 1.0) ** delta)) + tail
    inv_d2 = exp(-2.0 * coeff.log_dnm)
    c = 1.0 / (sqrt(2.0) / 2.0 - 0.5)
    rhs = (
        inv_d2 * (1.0 + m / sqrt(n))
        + c * (n - m + 1.0) ** -0.5 * (harmonic_number(delta + 0.5, n - m + 1) - 1.0)
        + tail
    )
    return WeightedMoment(lhs=lhs, rhs=rhs)
