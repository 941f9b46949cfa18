"""Thermal-noise sampling for deep lossy circuits.

When every input photon is attenuated down to transmission mu, the surviving
light is indistinguishable (in total variation) from single-mode thermal
states with mean-photon parameter lambda = mu.  Thermal states are Gaussian
in phase space, so the whole output distribution is sampled classically and
exactly: draw one complex-Gaussian coherent amplitude per occupied input,
push the amplitudes through the transfer matrix, and draw a Poisson count at
each output mode.  The surrogate itself is the only approximation.  The
paper's finite-precision stages (Gauss-Hermite constellation, Bernoulli
counters) stay as analysed functions that ``lossyboson validate`` checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .rng import RandomStream

__all__ = [
    "ThermalParams",
    "Constellation",
    "MAX_CONSTELLATION_ORDER",
    "gauss_hermite_constellation",
    "constellation_size",
    "bernoulli_trials_count",
    "sample_thermal_coherent",
    "propagate",
    "sample_poisson_bernoulli",
    "sample_output",
    "thermal_vs_erasure_distance",
    "scattershot_herald",
]

MAX_CONSTELLATION_ORDER = 64

DRAW_BLOCK = 32  # rows per propagate call in sample_output; bounds its temporaries

# 2 * KAPPA_SQ = 2.36 is the constant in the chi-square tail bound for the
# Gauss-Hermite constellation; the constellation-size formula uses 3*kappa.
KAPPA_SQ = 1.18


@dataclass(frozen=True)
class ThermalParams:
    """Single-mode thermal state with photon-number law P(n) = (1-lam) lam^n."""

    lam: float

    def __post_init__(self):
        if not 0.0 <= self.lam < 1.0:
            raise ValueError(f"thermal parameter must lie in [0, 1), got {self.lam}")

    @property
    def mean_photons(self) -> float:
        return self.lam / (1.0 - self.lam)

    @property
    def variance(self) -> float:
        """Variance of the Gaussian phase-space weight; equals the mean photon number."""
        return self.lam / (1.0 - self.lam)


@dataclass(frozen=True)
class Constellation:
    """Gauss-Hermite quadrature nodes/weights for the standard normal."""

    points: np.ndarray
    weights: np.ndarray

    @property
    def order(self) -> int:
        return len(self.points)


def gauss_hermite_constellation(m: int) -> Constellation:
    """Order-m Gauss-Hermite constellation (probabilists' convention).

    Nodes are the roots of the m-th probabilists' Hermite polynomial,
    computed as eigenvalues of the symmetric Jacobi matrix (Golub-Welsch);
    weights come from the squared first components of the eigenvectors.  The
    result integrates polynomials up to degree 2m-1 exactly against N(0, 1),
    so the first 2m-1 moments of a draw match a standard normal's.
    """
    if m < 1:
        raise ValueError(f"constellation order must be >= 1, got {m}")
    if m > MAX_CONSTELLATION_ORDER:
        raise CapacityError(
            f"constellation order {m} exceeds supported maximum {MAX_CONSTELLATION_ORDER}"
        )
    if m == 1:
        return Constellation(points=np.zeros(1), weights=np.ones(1))
    off = np.sqrt(np.arange(1, m, dtype=float))  # He recurrence weights
    jacobi = np.diag(off, 1) + np.diag(off, -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    weights = vectors[0] ** 2
    # enforce the exact symmetry the spectrum has analytically
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    weights /= weights.sum()
    return Constellation(points=nodes, weights=weights)


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


def sample_thermal_coherent(
    constellation: Constellation, params: ThermalParams, n: int, rng: RandomStream
) -> np.ndarray:
    """Draw coherent amplitudes for n independent thermal modes.

    Each amplitude is sqrt(V/2) * (x + i x') with x, x' independent draws
    from the constellation, so E|alpha|^2 = V, the thermal phase-space
    variance.
    """
    if n < 0:
        raise ValueError("mode count must be >= 0")
    scale = math.sqrt(params.variance / 2.0)
    idx = rng.choice(constellation.order, size=(2, n), p=constellation.weights)
    pts = constellation.points
    return scale * (pts[idx[0]] + 1j * pts[idx[1]])


def propagate(a: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Push coherent amplitudes through a transfer matrix: beta = a @ alpha."""
    a = np.asarray(a)
    alpha = np.asarray(alpha)
    if a.ndim != 2 or a.shape[1] != alpha.shape[0]:
        raise ValueError(
            f"dimension mismatch: matrix {a.shape} cannot act on vector {alpha.shape}"
        )
    return a @ alpha


def sample_poisson_bernoulli(beta_i: complex, t: int, rng: RandomStream) -> int:
    """Photon count at one output mode: t Bernoulli trials of probability |beta|^2/t.

    The sum of t independent Bernoulli(x/t) trials is Binomial(t, x/t), drawn
    here in one call; its total-variation distance to the exact Poisson(x)
    counter is at most (1 - exp(-x)) * x / t.
    """
    if t < 1:
        raise ValueError("trial count must be >= 1")
    x = abs(beta_i) ** 2
    if x > t:
        raise ValueError(f"trial count {t} below intensity {x}: probability would exceed 1")
    if x == 0.0:
        return 0
    return int(rng.binomial(t, x / t))


def sample_output(
    a: np.ndarray,
    params: ThermalParams,
    inputs: np.ndarray,
    rng: RandomStream,
) -> np.ndarray:
    """Photon-count rows from thermal inputs through transfer matrix a.

    Each occupied input gets alpha = sqrt(V/2) * (x + i y) with x, y standard
    normal, so E|alpha|^2 = V, the thermal phase-space variance; the output
    mode i then counts Poisson(|beta_i|^2) photons with beta = a @ alpha.
    Both draws are exact, so the sample follows the thermal surrogate's law.
    All normals are drawn first, in row-major order of the occupied entries;
    the Poisson counts follow in blocks of :data:`DRAW_BLOCK` rows, also in
    row-major order, so the rows do not depend on the block size.

    Parameters
    ----------
    a : (M, M) array_like
        Transfer matrix with A A^dagger <= I (loss already factored out of
        the inputs into ``params``).
    params : ThermalParams
        Surrogate thermal state per occupied input mode.
    inputs : (rows, M) array_like of 0/1
        Row r carries a thermal input on mode j where ``inputs[r, j]`` is 1.
    """
    a = np.asarray(a, dtype=complex)
    inputs = np.asarray(inputs)
    if a.ndim != 2 or inputs.shape[1:] != a.shape[1:] or inputs.size and (
            inputs.min() < 0 or inputs.max() > 1 or inputs.sum() != np.count_nonzero(inputs)):
        raise ValueError(f"inputs {inputs.shape} must be a (rows, M) 0/1 array for A {a.shape}")
    rows, modes = np.nonzero(inputs)  # occupied entries in row-major order
    amplitudes = rng.standard_normal(2 * len(rows)).view(complex)  # (x, y) pairs
    amplitudes *= math.sqrt(params.variance / 2.0)
    ends = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(inputs)))))
    out = np.empty(inputs.shape, dtype=np.int64)
    for start in range(0, len(inputs), DRAW_BLOCK):
        stop = min(start + DRAW_BLOCK, len(inputs))
        block = slice(ends[start], ends[stop])
        alpha = np.zeros((stop - start, a.shape[1]), dtype=complex)
        alpha[rows[block] - start, modes[block]] = amplitudes[block]
        beta = propagate(a, alpha.T).T
        out[start:stop] = rng.poisson(np.abs(beta) ** 2)
    return out


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


def scattershot_herald(m_modes: int, lam: float, rng: RandomStream) -> np.ndarray:
    """Herald photon numbers for M two-mode-squeezed sources.

    Each entry is geometric with P(n) = (1 - lam) lam^n, n >= 0.  Callers
    filter for collision-free patterns (all entries <= 1) before using the
    pattern as an interferometer input.
    """
    if m_modes < 1:
        raise ValueError("mode count must be >= 1")
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"squeezing parameter must lie in [0, 1), got {lam}")
    return rng.geometric(1.0 - lam, size=m_modes) - 1
