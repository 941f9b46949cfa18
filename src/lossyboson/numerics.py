"""Shared numerical kernels: permanents, discrete distributions over
photon-count rows, row grouping and total-variation distance.

The tests' slow references (a Haar unitary by QR, the permanent as a sum over
permutations) live in ``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

__all__ = [
    "permanent",
    "Distribution",
    "row_groups",
    "total_variation",
]

PERMANENT_MAX_DIM = 20
# Complex entries in one Glynn intermediate: 8192 * 16 B = 128 KiB.
PERMANENT_CHUNK = 1 << 13


def permanent(a: np.ndarray) -> complex | np.ndarray:
    """Permanent of a square matrix, or of each matrix in a (..., n, n) stack.

    Glynn formula: perm(a) = 2^{1-n} sum over delta in {+-1}^n with
    delta_0 = +1 of prod(delta) * prod_j sum_i delta_i a[i, j].  The stack
    is laid out by columns (``cols[j]`` holds column j of every matrix), and
    for a block of matrices and a chunk of sign vectors the n products
    ``cols[j] @ delta`` are multiplied into one running product in place, so
    no intermediate exceeds 128 KiB; the work is O(2^n n^2) per matrix.
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
    size = int(np.prod(a.shape[:-2]))
    if n == 0:
        total = np.ones(size, dtype=complex)
    else:
        # cols[j, m, i] = a_m[i, j]: one contiguous (matrices, n) block per column
        cols = np.ascontiguousarray(np.moveaxis(a.reshape(size, n, n), -1, 0))
        total = np.zeros(size, dtype=complex)
        count = 1 << (n - 1)
        width = min(count, max(1, PERMANENT_CHUNK // n))  # sign vectors per product
        per = max(1, PERMANENT_CHUNK // width)  # matrices per product
        for start in range(0, count, width):
            index = np.arange(start, min(start + width, count))
            delta = np.ones((n, len(index)), dtype=complex)
            delta[1:] -= 2 * ((index >> np.arange(n - 1)[:, None]) & 1)
            parity = delta.prod(axis=0)
            for b in range(0, size, per):
                prod = cols[0, b : b + per] @ delta  # (matrices, signs)
                term = np.empty_like(prod)
                for j in range(1, n):
                    prod *= np.matmul(cols[j, b : b + per], delta, out=term)
                total[b : b + per] += prod @ parity
        total *= 2.0 ** (1 - n)
    if a.ndim == 2:
        return complex(total[0])
    return total.reshape(a.shape[:-2])


@dataclass(frozen=True)
class Distribution:
    """Discrete distribution over photon-count patterns.

    ``outcomes`` is a read-only (K, M) int array whose rows are distinct
    count patterns; ``weights`` are their K non-negative probabilities.
    Weights sum to one within 1e-10, unless ``truncation_error`` is positive:
    then the law is subnormal, its weights sum to at most one and the
    declared error covers the missing mass.
    """

    outcomes: np.ndarray
    weights: np.ndarray
    truncation_error: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        outcomes = np.array(self.outcomes)  # ValueError for ragged rows
        if outcomes.ndim != 2 or outcomes.dtype.kind not in "iu" or (outcomes < 0).any():
            raise ValueError("outcomes must be a 2-D array of non-negative integer counts")
        outcomes = outcomes.astype(int, copy=False)
        outcomes.flags.writeable = False
        object.__setattr__(self, "outcomes", outcomes)
        if len(outcomes) != w.shape[0]:
            raise ValueError("outcomes and weights length mismatch")
        if np.any(w < -1e-12):
            raise ValueError("negative probability weight")
        if len({row.tobytes() for row in outcomes}) != len(outcomes):
            raise ValueError("duplicate outcomes")
        total = float(w.sum())
        if self.truncation_error > 0.0:
            if total > 1.0 + 1e-9:
                raise ValueError(f"weights sum to {total} > 1")
            if self.truncation_error < (1.0 - total) - 1e-9:
                raise ValueError("declared truncation error below actual missing mass")
        elif abs(total - 1.0) > 1e-10:
            raise ValueError(f"weights must sum to 1, got {total}")


def row_groups(rows: np.ndarray) -> tuple:
    """Distinct rows of a 2-D int or bool array in sorted order and each row's index among them.

    The result of ``np.unique(rows, axis=0, return_inverse=True)``, from one
    lexsort of the columns instead of a sort of structured rows.  Rows with
    stride 0 (one row broadcast by ``np.broadcast_to``, as a fixed input
    pattern is) are one group, or none without rows, found without a sort.
    """
    if rows.strides[0] == 0:
        return rows[:1].copy(), np.zeros(len(rows), dtype=int)
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    which = np.empty(len(rows), dtype=int)
    which[order] = np.cumsum(first) - 1
    return ranked[first], which


def total_variation(p: Distribution, q: Distribution) -> float:
    """Total-variation distance ½ Σ |p(x) − q(x)| over the union of supports.

    Laws over different numbers of modes raise ``ValueError`` when stacked.
    """
    _, which = row_groups(np.concatenate([p.outcomes, q.outcomes]))
    diff = np.bincount(which, weights=np.concatenate([p.weights, -q.weights]))
    return 0.5 * float(np.abs(diff).sum())
