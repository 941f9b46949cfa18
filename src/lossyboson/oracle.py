"""Brute-force references for desk-scale validation.

Everything here is exponential-cost and capped at 8 photons / 8 modes; the
point is trustworthy numbers to hold the samplers against, not speed.
"""

from __future__ import annotations

import math
from itertools import chain, combinations, combinations_with_replacement

import numpy as np

from .errors import CapacityError, ModelViolationError
from .numerics import Distribution, permanent
from .thermal import Constellation, gauss_hermite_constellation

__all__ = [
    "ORACLE_MAX_PHOTONS",
    "ORACLE_MAX_MODES",
    "enumerate_patterns",
    "fock_output_distribution",
    "lossy_exact_distribution",
    "thermal_exact_distribution",
    "constellation_hermite_moments",
    "chi2_constellation",
]

ORACLE_MAX_PHOTONS = 8
ORACLE_MAX_MODES = 8
# Complex entries in one gathered permanent stack: 1 << 18 * 16 B = 4 MiB.
GATHER_ENTRIES = 1 << 18


def enumerate_patterns(total: int, modes: int) -> np.ndarray:
    """All count patterns of ``total`` photons over ``modes``, as lexicographic rows."""
    if modes < 1:
        raise ValueError("need at least one mode")
    if total < 0:
        raise ValueError("photon number must be >= 0")
    return _outcome_table(total, modes)[0]


def _check_caps(total: int, modes: int) -> None:
    if total > ORACLE_MAX_PHOTONS:
        raise CapacityError(
            f"oracle capped at {ORACLE_MAX_PHOTONS} photons, got {total}"
        )
    if modes > ORACLE_MAX_MODES:
        raise CapacityError(f"oracle capped at {ORACLE_MAX_MODES} modes, got {modes}")


def _check_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"interferometer matrix must be square, got {u.shape}")
    defect = np.abs(u @ u.conj().T - np.eye(u.shape[0])).max()
    if defect > 1e-8:
        raise ModelViolationError(
            f"matrix is not unitary (defect {defect:.3g}); decompose losses first"
        )
    return u


def _counts(rows: np.ndarray, modes: int) -> np.ndarray:
    """Photon counts per mode of each row of a (sets, k) array of mode lists."""
    flat = rows + modes * np.arange(len(rows))[:, None]
    return np.bincount(flat.ravel(), minlength=len(rows) * modes).reshape(-1, modes)


def _norms(counts: np.ndarray) -> np.ndarray:
    """prod(counts!) of each row of a count array."""
    top = int(counts.max(initial=0))
    factorials = np.array([math.factorial(x) for x in range(top + 1)], dtype=float)
    return factorials[counts].prod(axis=1)


def _outcome_table(total: int, modes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outcomes of ``total`` photons over ``modes``, their permanent rows and norms.

    Row r of the (K, M) count array is outcome r.  Row r of the index array
    lists outcome r's occupied modes in ascending order, each repeated by
    its count; the norm is prod(outcome!).  Sorted mode lists in descending
    lexicographic order give the count patterns in ascending lexicographic
    order, which is the order of the outcomes.
    """
    lists = combinations_with_replacement(range(modes), total)
    size = math.comb(modes + total - 1, total)
    rows = np.fromiter(chain.from_iterable(lists), np.intp, size * total)
    rows = rows.reshape(size, total)[::-1]
    counts = _counts(rows, modes)
    return counts, rows, _norms(counts)


def _summed_weights(u: np.ndarray, table: tuple, inputs: np.ndarray) -> np.ndarray:
    """Output weights over ``table`` summed over a (sets, k) array of input columns.

    Each row of ``inputs`` lists the k input modes of one Fock input, each mode
    repeated by its count; its weight at outcome r is
    |perm(u[rows[r], input])|^2 / (prod(outcome!) * prod(input!)).  The
    submatrices of every (input, outcome) pair go to one stacked permanent
    call, in pieces of at most ``GATHER_ENTRIES`` complex entries.
    """
    _, rows, norms = table
    sets, k = inputs.shape
    in_norms = _norms(_counts(inputs, u.shape[1]))
    per = max(1, GATHER_ENTRIES // max(1, len(rows) * k * k))  # inputs per piece
    acc = np.zeros(len(rows))
    for s in range(0, sets, per):
        # cols[c, s, t, r] = u[rows[t, r], inputs[s, c]]: gathered by columns, so
        # the permanent's column layout is a view of it, not a copy
        cols = np.take(u.T[inputs[s : s + per].T], rows, axis=2)
        amps = permanent(np.moveaxis(cols, 0, -1))
        acc += (np.abs(amps) ** 2 / in_norms[s : s + per, None]).sum(axis=0)
    return acc / norms


def _mixture(u: np.ndarray, parts, truncation_error: float = 0.0) -> Distribution:
    """Weighted sum of lossless laws, one per part (weight, k, inputs).

    A part adds weight times the law of k photons summed over the rows of the
    (sets, k) input array ``inputs``; parts of weight 0 are skipped.  Each
    part's outcomes are enumerated once and its permanents are one stacked
    call (:func:`_summed_weights`).
    """
    outcomes, weights = [], []
    for weight, k, inputs in parts:
        if weight == 0.0:
            continue
        table = _outcome_table(k, u.shape[0])
        outcomes.append(table[0])
        weights.append(weight * _summed_weights(u, table, inputs))
    outcomes, weights = np.concatenate(outcomes), np.concatenate(weights)
    order = np.lexsort(outcomes.T[::-1])  # disjoint supports per k: one sort orders all
    return Distribution(outcomes[order], weights[order], truncation_error)


def fock_output_distribution(u: np.ndarray, pattern) -> Distribution:
    """Exact output distribution of Fock input ``pattern`` through unitary ``u``.

    p(outcome) = |perm(u[rows, cols])|^2 / (prod(outcome!) * prod(pattern!))
    with rows repeated by outcome multiplicities and columns by input
    multiplicities.  Outcomes are enumerated lexicographically.
    """
    return lossy_exact_distribution(u, 1.0, pattern)


def lossy_exact_distribution(u: np.ndarray, mu: float, pattern) -> Distribution:
    """Exact outcome law of Fock input ``pattern`` with uniform transmission mu.

    ``pattern`` holds a photon count per mode.  Each input photon survives
    the loss channel independently with probability mu, then the survivors
    interfere through the unitary ``u``.  The result is the binomial mixture
    over survival subsets of the exact lossless laws: for each survivor
    count k the outcomes are enumerated once, and the submatrices of every
    (k-subset of inputs, outcome) pair go to one stacked permanent call.
    At mu = 1 only the k = n term is left.
    """
    u = _check_unitary(u)
    modes = u.shape[0]
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"transmission must lie in [0, 1], got {mu}")
    pattern = [int(x) for x in pattern]
    if len(pattern) != modes:
        raise ValueError(f"pattern covers {len(pattern)} modes, matrix has {modes}")
    if any(x < 0 for x in pattern):
        raise ValueError("photon counts must be non-negative")
    input_modes = np.repeat(np.arange(modes), pattern)
    n = len(input_modes)
    _check_caps(n, modes)
    parts = ((mu**k * (1.0 - mu) ** (n - k), k,
              input_modes[np.array(list(combinations(range(n), k)), dtype=np.intp)])
             for k in range(n + 1))
    return _mixture(u, parts)


def thermal_exact_distribution(
    u: np.ndarray, lam: float, n: int, cutoff: int
) -> Distribution:
    """Outcome law for n thermal inputs, truncated at ``cutoff`` total photons.

    Each of the first n modes carries an independent thermal state with
    photon law P(k) = (1-lam) lam^k; inputs with more than ``cutoff`` photons
    in total are dropped and their mass is reported as the distribution's
    ``truncation_error``.
    """
    u = _check_unitary(u)
    modes = u.shape[0]
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"thermal parameter must lie in [0, 1), got {lam}")
    if not 1 <= n <= modes:
        raise ValueError(f"need 1 <= thermal modes <= {modes}, got {n}")
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    _check_caps(cutoff, modes)
    weights = [(1.0 - lam) ** n * lam**t for t in range(cutoff + 1)]
    included = 0.0
    for t, w in enumerate(weights):  # w is the weight of each of the C(n+t-1, t) inputs
        included += w * math.comb(n + t - 1, t)
    # the inputs of t photons: every pattern over the n thermal modes, as mode lists
    parts = ((w, t, _outcome_table(t, n)[1]) for t, w in enumerate(weights))
    return _mixture(u, parts, max(0.0, 1.0 - included))


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
