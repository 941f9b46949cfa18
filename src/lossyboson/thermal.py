"""Thermal-noise sampling for deep lossy circuits.

When every input photon is attenuated down to transmission mu, the surviving
light is indistinguishable (in total variation) from single-mode thermal
states with mean-photon parameter lambda = mu.  Thermal states are Gaussian
in phase space, so the whole output distribution is sampled classically and
exactly: draw one complex-Gaussian coherent amplitude per occupied input,
push the amplitudes through the transfer matrix, and draw a Poisson count at
each output mode.  The surrogate itself is the only approximation.
:func:`sample_output` uses neither of the paper's finite-precision stages;
the Gauss-Hermite constellation and the Bernoulli counter stay only because
``perfbench/traced.py`` wraps them by name.  Their size formulas and error
bounds are reference code in ``tests/paper_stages.py``.
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
    "sample_thermal_coherent",
    "propagate",
    "sample_poisson_bernoulli",
    "sample_output",
    "scattershot_herald",
]

MAX_CONSTELLATION_ORDER = 64

DRAW_BLOCK = 32  # rows per propagate call in sample_output; bounds its temporaries


@dataclass(frozen=True)
class ThermalParams:
    """Single-mode thermal state with photon-number law P(n) = (1-lam) lam^n."""

    lam: float

    def __post_init__(self):
        if not 0.0 <= self.lam < 1.0:
            raise ValueError(f"thermal parameter must lie in [0, 1), got {self.lam}")

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
    """(rows, M) photon counts from thermal inputs through K columns ``a`` of a transfer matrix.

    Each occupied input gets alpha = sqrt(V/2) * (x + i y) with x, y standard
    normal, so E|alpha|^2 = V, the thermal phase-space variance; the output
    mode i then counts Poisson(|beta_i|^2) photons with beta = a @ alpha.
    Both draws are exact, so the sample follows the thermal surrogate's law.
    All normals are drawn first, in row-major order of the occupied entries;
    the Poisson counts follow in blocks of :data:`DRAW_BLOCK` rows, also in
    row-major order, so the rows do not depend on the block size.  Each
    block finds its own occupied entries, so only the counts, the amplitudes
    and two intp values per row span the whole draw.  Each block propagates
    only the columns of ``a`` that some of its rows occupy, so a row costs
    O(M * N_occ), not O(M * K).  Dropping columns that no row occupies keeps
    every count bit for bit.

    Parameters
    ----------
    a : (M, K) array_like
        K columns of a transfer matrix with A A^dagger <= I (loss already
        factored out of the inputs into ``params``): all M for heralded
        inputs, or only the occupied ones of a fixed pattern.
    params : ThermalParams
        Surrogate thermal state per occupied input mode.
    inputs : (rows, K) array_like of 0/1 or bool
        Row r carries a thermal input on column j where ``inputs[r, j]`` is 1.
    """
    a = np.asarray(a, dtype=complex)
    inputs = np.asarray(inputs)
    if a.ndim != 2 or inputs.shape[1:] != a.shape[1:] or inputs.size and (
            inputs.min() < 0 or inputs.max() > 1 or inputs.sum() != np.count_nonzero(inputs)):
        raise ValueError(f"inputs {inputs.shape} must be a (rows, K) 0/1 array for A {a.shape}")
    ends = np.concatenate(([0], np.cumsum(np.count_nonzero(inputs, axis=1))))
    amplitudes = rng.standard_normal(2 * int(ends[-1])).view(complex)  # (x, y) pairs
    amplitudes *= math.sqrt(params.variance / 2.0)
    out = np.empty((len(inputs), len(a)), dtype=np.int64)
    for start in range(0, len(inputs), DRAW_BLOCK):
        stop = min(start + DRAW_BLOCK, len(inputs))
        alpha = np.zeros((stop - start, a.shape[1]), dtype=complex)
        alpha[np.nonzero(inputs[start:stop])] = amplitudes[ends[start]:ends[stop]]
        cols = np.flatnonzero(inputs[start:stop].any(axis=0))
        beta = propagate(a[:, cols], alpha[:, cols].T).T
        out[start:stop] = rng.poisson(np.abs(beta) ** 2)
    return out


def scattershot_herald(m_modes: int, lam: float, rng: RandomStream, size: int) -> np.ndarray:
    """``size`` collision-free heralds of M two-mode-squeezed sources, as (size, M) bool rows.

    Each source heralds n photons with P(n) = (1 - lam) lam^n.  Given that no
    source heralds two or more, the modes stay independent and each is 1 with
    probability lam / (1 + lam), so a herald h has P(h) proportional to
    lam^|h|; the rows are drawn from that law in one ``rng.binomial`` call
    and kept as bool, so they cost one byte per entry beside the int64
    counts drawn from them.
    """
    if m_modes < 1:
        raise ValueError("mode count must be >= 1")
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"squeezing parameter must lie in [0, 1), got {lam}")
    return rng.binomial(1, lam / (1.0 + lam), size=(size, m_modes)).astype(bool)
