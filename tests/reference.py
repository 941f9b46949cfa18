"""Reference code that the tests compare the package against.

Nothing in ``lossyboson`` calls these: the samplers draw couplers in their
own parameters, compute permanents by Glynn's formula and draw from evolved
states without checking their norm or canonical form.  They stay here so the
tests can keep holding that code against slow, plain definitions: a Haar
unitary by QR, the permanent as a sum over permutations, the MPS norm by a
transfer contraction and the canonical-form conditions.  ``apply_phase``
rotates one MPS site by a layer's phase, as an evolution that keeps phases
out of the coupler gates does.  The last helpers read a law, a state or a
coupler operator in the form the tests compare.
"""

from itertools import permutations

import numpy as np

from lossyboson.mps import CouplerMPO, MPSState
from lossyboson.numerics import Distribution
from lossyboson.rng import RandomStream


def haar_unitary(m: int, rng: RandomStream, count: int | None = None) -> np.ndarray:
    """Draw an m-by-m unitary from the Haar measure, or a (count, m, m) stack.

    QR of a complex Ginibre matrix, with the R diagonal's phases divided out
    so the distribution is exactly Haar rather than QR-convention biased.
    Each matrix consumes m*m real then m*m imaginary normals, so a stack
    equals ``count`` single draws from the same stream, bit for bit.  It is
    the tests' reference Haar law; ``circuit.random_brickwork`` draws its
    2x2 couplers in their own parameters instead.
    """
    if m < 1:
        raise ValueError("matrix size must be >= 1")
    x = rng.standard_normal((2, m, m) if count is None else (count, 2, m, m))
    z = (x[..., 0, :, :] + 1j * x[..., 1, :, :]) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def permanent_naive(a: np.ndarray) -> complex:
    """Permanent by direct sum over permutations; reference for small n."""
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


def state_norm(state: MPSState) -> float:
    """<psi|psi> by direct transfer-matrix contraction (no canonicity assumed).

    Each site is taken in two pairwise products, rho[a, b] B[n, b, d] and then
    the sum over (n, a) against conj(B), so a site costs O(q * chi**3).
    """
    rho = np.ones((1, 1), dtype=complex)
    for t in state.tensors:
        chi_r = t.shape[2]
        rho = t.reshape(-1, chi_r).conj().T @ (rho @ t).reshape(-1, chi_r)
    return float(rho[0, 0].real)


def canonical_defect(state: MPSState) -> float:
    """Largest deviation of the canonical-form isometry conditions.

    Every site must be a right isometry, sum_n B[n] B[n]^dagger = 1, and a
    left isometry once its bond weights are taken out,
    sum_n B[n]^dagger diag(lambda_left**2) B[n] = diag(lambda_right**2).
    """
    weights = [np.ones(1), *state.schmidts, np.ones(1)]
    worst = 0.0
    for t, lam_l, lam_r in zip(state.tensors, weights, weights[1:]):
        gram = np.einsum("nac,nbc->ab", t, t.conj())
        worst = max(worst, float(np.abs(gram - np.eye(gram.shape[0])).max()))
        gram = np.einsum("nac,a,nad->cd", t.conj(), lam_l**2, t)
        worst = max(worst, float(np.abs(gram - np.diag(lam_r**2)).max()))
    return worst


def weighted_defect(state: MPSState) -> float:
    """``canonical_defect`` with its right-isometry term weighted by lambda_left on both sides.

    Entry (a, b) of sum_n B[n] B[n]^dagger - 1 is scaled by lambda_left[a] *
    lambda_left[b]: a row with no Schmidt weight carries no amplitude that a
    chain-rule draw can reach, so only the deviation it can move is counted.
    """
    weights = [np.ones(1), *state.schmidts, np.ones(1)]
    worst = 0.0
    for t, lam_l, lam_r in zip(state.tensors, weights, weights[1:]):
        gram = np.einsum("nac,nbc->ab", t, t.conj()) - np.eye(t.shape[1])
        worst = max(worst, float(np.abs(lam_l[:, None] * gram * lam_l).max()))
        gram = np.einsum("nac,a,nad->cd", t.conj(), lam_l**2, t)
        worst = max(worst, float(np.abs(gram - np.diag(lam_r**2)).max()))
    return worst


def apply_phase(state: MPSState, mode: int, theta: float) -> MPSState:
    """Phase rotation exp(i * theta * n) on one mode, in place; bonds untouched."""
    if not 0 <= mode < state.modes:
        raise ValueError(f"mode {mode} out of range for {state.modes} modes")
    factor = np.exp(1j * theta * np.arange(len(state.tensors[mode])))
    state.tensors[mode] = state.tensors[mode] * factor[:, None, None]
    return state


def as_dict(dist: Distribution) -> dict:
    """A law as {outcome tuple: weight}."""
    return dict(zip(map(tuple, dist.outcomes.tolist()), dist.weights))


def bond_dims(state: MPSState) -> tuple:
    """A state's bond dimensions, left to right."""
    return tuple(len(s) for s in state.schmidts)


def recombine(mpo: CouplerMPO) -> np.ndarray:
    """The Fock tensor c[p, s, n, m] that the operator splits."""
    return np.einsum("png,g,smg->psnm", mpo.x_left, mpo.sigmas, mpo.x_right)
