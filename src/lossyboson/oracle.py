"""Brute-force references for desk-scale validation.

Everything here is exponential-cost and capped at 8 photons / 8 modes; the
point is trustworthy numbers to hold the samplers against, not speed.
"""

from __future__ import annotations

import math

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


def enumerate_patterns(total: int, modes: int):
    """All count patterns of ``total`` photons over ``modes``, lexicographic."""
    if modes < 1:
        raise ValueError("need at least one mode")
    if total < 0:
        raise ValueError("photon number must be >= 0")
    if modes == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in enumerate_patterns(total - first, modes - 1):
            yield (first,) + rest


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


def _outcome_table(total: int, modes: int) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Outcomes of ``total`` photons over ``modes``, their permanent rows and norms.

    Row r of the index array repeats each mode by its count in outcome r;
    the norm is prod(outcome!).
    """
    outcomes = tuple(enumerate_patterns(total, modes))
    counts = np.array(outcomes, dtype=int).reshape(len(outcomes), modes)
    rows = np.repeat(np.tile(np.arange(modes), len(outcomes)), counts.ravel())
    factorials = np.array([math.factorial(x) for x in range(total + 1)], dtype=float)
    return outcomes, rows.reshape(len(outcomes), total), factorials[counts].prod(axis=1)


def _fock_weights(u: np.ndarray, pattern, table: tuple) -> np.ndarray:
    """Output weights of Fock input ``pattern`` over a table from :func:`_outcome_table`.

    Every outcome's submatrix is gathered into one stack for one permanent call.
    """
    _, rows, norms = table
    cols = np.repeat(np.arange(len(pattern)), pattern)
    amps = permanent(u[rows[:, :, None], cols])
    in_norm = math.prod(math.factorial(x) for x in pattern)
    return np.abs(amps) ** 2 / (in_norm * norms)


def fock_output_distribution(u: np.ndarray, pattern) -> Distribution:
    """Exact output distribution of Fock input ``pattern`` through unitary ``u``.

    p(outcome) = |perm(u[rows, cols])|^2 / (prod(outcome!) * prod(pattern!))
    with rows repeated by outcome multiplicities and columns by input
    multiplicities.  Outcomes are enumerated lexicographically.
    """
    u = _check_unitary(u)
    modes = u.shape[0]
    pattern = tuple(int(x) for x in pattern)
    if len(pattern) != modes:
        raise ValueError(f"pattern covers {len(pattern)} modes, matrix has {modes}")
    if any(x < 0 for x in pattern):
        raise ValueError("photon counts must be non-negative")
    total = sum(pattern)
    _check_caps(total, modes)
    table = _outcome_table(total, modes)
    return Distribution(outcomes=table[0], weights=_fock_weights(u, pattern, table))


def lossy_exact_distribution(
    u: np.ndarray, mu: float, n: int, input_modes=None
) -> Distribution:
    """Exact outcome law for n single photons with uniform transmission mu.

    Input photons occupy ``input_modes`` (default: the first n modes); each
    survives the loss channel independently with probability mu, then the
    survivors interfere through the unitary ``u``.  The result is the
    binomial mixture over survival subsets of the exact lossless
    distributions; outcomes are enumerated once per survivor count.
    """
    u = _check_unitary(u)
    modes = u.shape[0]
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"transmission must lie in [0, 1], got {mu}")
    if not 0 <= n <= modes:
        raise ValueError(f"need 0 <= photons <= modes, got n={n}, modes={modes}")
    input_modes = np.arange(n) if input_modes is None else np.asarray(input_modes, dtype=int)
    if input_modes.shape != (n,) or (
            n and not 0 <= input_modes.min() <= input_modes.max() < modes):
        raise ValueError(f"input_modes must list {n} modes in [0, {modes})")
    _check_caps(n, modes)
    tables: dict = {}  # survivor count -> outcome table
    acc: dict = {}  # survivor count -> weights summed over that table
    for bits in range(1 << n):
        survivors = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
        k = int(survivors.sum())
        weight = mu**k * (1.0 - mu) ** (n - k)
        if weight == 0.0:
            continue
        if k not in tables:
            tables[k], acc[k] = _outcome_table(k, modes), 0.0
        pattern = np.bincount(input_modes[survivors], minlength=modes)
        acc[k] = acc[k] + weight * _fock_weights(u, pattern, tables[k])
    law = {o: w for k in tables for o, w in zip(tables[k][0], acc[k])}
    outcomes = sorted(law)
    return Distribution(
        outcomes=tuple(outcomes), weights=np.array([law[o] for o in outcomes])
    )


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
    acc: dict = {}
    included = 0.0
    for total in range(cutoff + 1):
        for partial in enumerate_patterns(total, n):
            weight = (1.0 - lam) ** n * lam**total
            if weight == 0.0:
                continue
            included += weight
            pattern = partial + (0,) * (modes - n)
            sub = fock_output_distribution(u, pattern)
            for outcome, w in zip(sub.outcomes, sub.weights):
                acc[outcome] = acc.get(outcome, 0.0) + weight * w
    tail = max(0.0, 1.0 - included)
    outcomes = sorted(acc)
    return Distribution(
        outcomes=tuple(outcomes),
        weights=np.array([acc[o] for o in outcomes]),
        truncation_error=tail,
        subnormal=True,
    )


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
