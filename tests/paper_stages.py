"""The paper's finite-precision stages and distance formula, as reference code for the tests.

``lossyboson sample`` draws exact Gaussians and Poisson counts, so nothing in
the package calls these.  They stay here so the tests can keep checking the
paper's analysis: the Gauss-Hermite constellation's size and chi-square
budget, the Bernoulli-counter trial count, and the thermal-erasure distance.
"""

import math

import numpy as np

from lossyboson.thermal import Constellation, gauss_hermite_constellation

# 2 * KAPPA_SQ = 2.36 is the constant in the chi-square tail bound for the
# Gauss-Hermite constellation; the constellation-size formula uses 3*kappa.
KAPPA_SQ = 1.18


def constellation_size(n: int, eps: float, mu: float) -> int:
    """Constellation order needed for N thermal modes at parameter mu, budget eps.

    m = ceil( [ln N + ln(1/eps) + ln(1/(1-mu)) + 2 ln(3 kappa)] / ln(1/mu) )
    with kappa = sqrt(1.18).  Always at least 1.
    """
    if n < 1:
        raise ValueError("photon number must be >= 1")
    if eps <= 0:
        raise ValueError("error budget must be positive")
    if mu < 0:
        raise ValueError(f"thermal parameter must be >= 0, got {mu}")
    if mu >= 1.0 - 1e-6:
        raise ValueError(
            f"thermal parameter {mu} too close to 1: constellation size diverges"
        )
    if mu == 0.0:
        return 1
    numerator = (
        math.log(n)
        + math.log(1.0 / eps)
        + math.log(1.0 / (1.0 - mu))
        + 2.0 * math.log(3.0 * math.sqrt(KAPPA_SQ))
    )
    return max(1, math.ceil(numerator / math.log(1.0 / mu)))


def bernoulli_trials_count(m_modes: int, n: int, eps: float, m_const: int) -> int:
    """Bernoulli trials per output mode for the Poisson stage: ceil(6 M N^2 m^2 / eps)."""
    if m_modes < 1 or n < 1 or m_const < 1:
        raise ValueError("mode count, photon number and constellation order must be >= 1")
    if eps <= 0:
        raise ValueError("error budget must be positive")
    return math.ceil(6.0 * m_modes * n * n * m_const * m_const / eps)


def thermal_vs_erasure_distance(lam: float, mu: float) -> float:
    """Trace distance between a thermal state and the single-photon erasure state.

    The erasure state keeps a photon with probability mu; both states are
    diagonal in the number basis, so the distance is
    (lam^2 + |mu - lam| + |lam(1-lam) - mu|) / 2, which equals mu^2 at the
    matched choice lam = mu.
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"thermal parameter must lie in [0, 1), got {lam}")
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"transmission must lie in [0, 1], got {mu}")
    return 0.5 * (lam * lam + abs(mu - lam) + abs(lam * (1.0 - lam) - mu))


def constellation_hermite_moments(
    constellation: Constellation, k_max: int
) -> np.ndarray:
    """E[he_k(X)] for k = 0..k_max under the constellation, orthonormal Hermite basis.

    he_k are the probabilists' Hermite polynomials normalized to unit variance
    under N(0,1) (he_k = He_k / sqrt(k!)); the three-term recurrence keeps the
    values finite for k in the hundreds.  An order-m constellation reproduces
    the normal moments exactly through degree 2m-1, so entries 1..2m-1 vanish.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    x, w = constellation.points, constellation.weights
    moments = np.empty(k_max + 1)
    prev = np.zeros_like(x)
    curr = np.ones_like(x)
    moments[0] = w @ curr
    for k in range(k_max):
        nxt = (x * curr - math.sqrt(k) * prev) / math.sqrt(k + 1)
        prev, curr = curr, nxt
        moments[k + 1] = w @ curr
    return moments


def chi2_constellation(m: int, lam: float, k_max: int = 200) -> float:
    """Chi-square divergence of the order-m constellation from the thermal Gaussian.

    1 + chi2 = sum_k lam^(k/2) |E[he_k(X_m)]|^2; the first 2m-1 Hermite
    moments vanish by quadrature exactness, so the series starts at k = 2m
    and is bounded by 2.36 * lam^m / (1 - lam).
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"thermal parameter must lie in [0, 1), got {lam}")
    constellation = gauss_hermite_constellation(m)
    moments = constellation_hermite_moments(constellation, k_max)
    root = math.sqrt(lam)
    total = 0.0
    for k in range(k_max + 1):
        total += root**k * moments[k] ** 2
    return total - 1.0
