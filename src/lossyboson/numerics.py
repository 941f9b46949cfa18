"""Shared numerical kernels: Haar unitaries, permanents, discrete
distributions, total-variation distance and input-mode checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError
from .rng import RandomStream

__all__ = [
    "haar_unitary",
    "permanent",
    "permanent_naive",
    "Distribution",
    "total_variation",
]

PERMANENT_MAX_DIM = 20
# Complex entries in one Glynn intermediate: 8192 * 16 B = 128 KiB.
PERMANENT_CHUNK = 1 << 13


def haar_unitary(m: int, rng: RandomStream, count: int | None = None) -> np.ndarray:
    """Draw an m-by-m unitary from the Haar measure, or a (count, m, m) stack.

    QR of a complex Ginibre matrix, with the R diagonal's phases divided out
    so the distribution is exactly Haar rather than QR-convention biased.
    Each matrix consumes m*m real then m*m imaginary normals, so a stack
    equals ``count`` single draws from the same stream, bit for bit.
    """
    if m < 1:
        raise ValueError("matrix size must be >= 1")
    x = rng.standard_normal((2, m, m) if count is None else (count, 2, m, m))
    z = (x[..., 0, :, :] + 1j * x[..., 1, :, :]) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def permanent(a: np.ndarray) -> complex | np.ndarray:
    """Permanent of a square matrix, or of each matrix in a (..., n, n) stack.

    Glynn formula: perm(a) = 2^{1-n} sum over delta in {+-1}^n with
    delta_0 = +1 of prod(delta) * prod_j sum_i delta_i a[i, j].  The sign
    vectors are taken in chunks as one matrix product each, so no
    intermediate exceeds 128 KiB; the work is O(2^n n^2) per matrix.
    A single matrix gives a complex number, a stack an array of the stack's
    shape.  The 0-by-0 permanent is 1 by convention (empty product).

    Raises
    ------
    ValueError
        If ``a`` is not square.
    CapacityError
        If n > 20; beyond that the 2^n sum is not worth attempting.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"permanent needs a square matrix, got shape {a.shape}")
    n = a.shape[-1]
    if n > PERMANENT_MAX_DIM:
        raise CapacityError(
            f"permanent capped at {PERMANENT_MAX_DIM}x{PERMANENT_MAX_DIM}, got n={n}"
        )
    stack = a.reshape((int(np.prod(a.shape[:-2])), n, n))
    if n == 0:
        total = np.ones(len(stack), dtype=complex)
    else:
        total = np.zeros(len(stack), dtype=complex)
        count = 1 << (n - 1)
        width = min(count, max(1, PERMANENT_CHUNK // n))  # sign vectors per product
        per = max(1, PERMANENT_CHUNK // (width * n))  # matrices per product
        for start in range(0, count, width):
            index = np.arange(start, min(start + width, count))
            delta = np.ones((len(index), n), dtype=complex)
            delta[:, 1:] -= 2 * ((index[:, None] >> np.arange(n - 1)) & 1)
            parity = delta.prod(axis=1)
            for b in range(0, len(stack), per):
                sums = delta @ stack[b : b + per]  # (matrices, signs, n) column sums
                total[b : b + per] += sums.prod(axis=-1) @ parity
        total *= 2.0 ** (1 - n)
    if a.ndim == 2:
        return complex(total[0])
    return total.reshape(a.shape[:-2])


def permanent_naive(a: np.ndarray) -> complex:
    """Permanent by direct sum over permutations; reference for small n."""
    from itertools import permutations

    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"permanent needs a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        return complex(1.0)
    total = 0.0 + 0.0j
    for perm in permutations(range(n)):
        term = 1.0 + 0.0j
        for i, j in enumerate(perm):
            term *= a[i, j]
        total += term
    return complex(total)


@dataclass(frozen=True)
class Distribution:
    """Discrete distribution with explicit outcome labels.

    Outcomes are hashable labels (photon-count tuples throughout this
    package); weights are non-negative and, unless ``subnormal`` is set,
    sum to one within 1e-10.  A subnormal distribution carries the missing
    mass in ``truncation_error``.
    """

    outcomes: tuple
    weights: np.ndarray
    truncation_error: float = 0.0
    subnormal: bool = field(default=False, repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        if len(self.outcomes) != w.shape[0]:
            raise ValueError("outcomes and weights length mismatch")
        if np.any(w < -1e-12):
            raise ValueError("negative probability weight")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ValueError("duplicate outcome labels")
        total = float(w.sum())
        if self.subnormal:
            if total > 1.0 + 1e-9:
                raise ValueError(f"weights sum to {total} > 1")
            if self.truncation_error < (1.0 - total) - 1e-9:
                raise ValueError("declared truncation error below actual missing mass")
        elif abs(total - 1.0) > 1e-10:
            raise ValueError(f"weights must sum to 1, got {total}")

    def as_dict(self) -> dict:
        return dict(zip(self.outcomes, self.weights))


def total_variation(p: Distribution, q: Distribution) -> float:
    """Total-variation distance ½ Σ |p(x) − q(x)| over the union of supports."""
    pd, qd = p.as_dict(), q.as_dict()
    support = set(pd) | set(qd)
    return 0.5 * sum(abs(pd.get(x, 0.0) - qd.get(x, 0.0)) for x in support)
