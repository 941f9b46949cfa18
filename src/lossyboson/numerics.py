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
    "input_mode_indices",
]

PERMANENT_MAX_DIM = 20


def haar_unitary(m: int, rng: RandomStream) -> np.ndarray:
    """Draw an m-by-m unitary from the Haar measure.

    QR of a complex Ginibre matrix, with the R diagonal's phases divided out
    so the distribution is exactly Haar rather than QR-convention biased.
    """
    if m < 1:
        raise ValueError("matrix size must be >= 1")
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def permanent(a: np.ndarray) -> complex:
    """Permanent of a square matrix by the Glynn formula with Gray-code updates.

    Runs in O(2^n n) time for an n-by-n matrix.  The 0-by-0 permanent is 1 by
    convention (empty product).

    Raises
    ------
    ValueError
        If ``a`` is not square.
    CapacityError
        If n > 20; beyond that the 2^n loop is not worth attempting.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"permanent needs a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        return complex(1.0)
    if n > PERMANENT_MAX_DIM:
        raise CapacityError(
            f"permanent capped at {PERMANENT_MAX_DIM}x{PERMANENT_MAX_DIM}, got n={n}"
        )
    # Glynn: perm(a) = 2^{1-n} sum over delta in {+-1}^n (delta_0 = +1 fixed)
    # of prod(delta) * prod_j sum_i delta_i a[i, j].  Successive delta vectors
    # follow a Gray code so each step updates the column sums with one row.
    col_sums = a.sum(axis=0).astype(complex)
    total = np.prod(col_sums)
    sign = 1
    gray = 0
    for k in range(1, 1 << (n - 1)):
        new_gray = k ^ (k >> 1)
        flipped = new_gray ^ gray  # power of two: the row whose sign changed
        row = flipped.bit_length()  # rows 1..n-1 (row 0 sign stays +1)
        direction = -2.0 if (new_gray & flipped) else 2.0
        col_sums += direction * a[row]
        gray = new_gray
        sign = -sign
        total += sign * np.prod(col_sums)
    return complex(total * 2.0 ** (1 - n))


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


def input_mode_indices(input_modes, n: int, modes: int) -> np.ndarray:
    """The n occupied input modes as an int array (default: the first n).

    Raises ValueError unless there are exactly n indices, all in [0, modes).
    """
    input_modes = np.arange(n) if input_modes is None else np.asarray(input_modes, dtype=int)
    if input_modes.shape[0] != n:
        raise ValueError("input_modes length must equal n")
    if n > 0 and (input_modes.min() < 0 or input_modes.max() >= modes):
        raise ValueError("input mode index out of range")
    return input_modes
