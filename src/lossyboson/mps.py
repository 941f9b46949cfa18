"""Exact matrix-product-state evolution for shallow interferometers.

The state of M modes is a list of right-canonical site tensors
B[i] = Gamma[i] lambda[i] (Vidal's notation), shape (q_i, chi_left,
chi_right) with q_i - 1 the most photons site i holds, and the bonds'
Schmidt vectors lambda[i].  Every site dimension is read from its tensor.
A count pattern's amplitude is B[0][n_0] @ ... @ B[M-1][n_{M-1}].  The tests
check norm and canonical form with ``tests/reference.py``.

Gates never truncate: each coupler's two-mode Fock-space unitary is
contracted with its two-site block, and one SVD of that block with the left
Schmidt weights in front re-splits the bond without dividing by any weight
(Hastings, J. Math. Phys. 50, 095207 (2009)); only singular values below
1e-12 of the largest (exact zeros up to rounding) are dropped.
``simulate_circuit`` caps each site at the photons of its light cone: the
occupied inputs that the gate list can carry to it.  A coupler gives both of
its modes the union of their input sets, so a site's set only grows and its
final set bounds its photon number at every layer.  The evolution is
therefore exact, and the bond dimension is bounded by (d+1)^(2*depth) with d
the total photon number; with the phases riding in the coupler gates it is
exact up to one global phase (see ``simulate_circuit``).

Losses are handled by the caller (``sampler.MPSSource`` picks the end of the
circuit at which uniform loss is applied).

Rows are drawn from the state ``simulate_circuit`` returns, as it is, by the
chain rule over modes.  Mode i's law depends only on the counts of modes
0..i-1, so ``sample`` works it out once per distinct prefix: products of at
most :data:`SAMPLE_BLOCK` prefixes at a time, one ``rng.random(size)`` draw
per mode in mode order.  Rows whose prefix probability underflows are redrawn
by ``sample`` itself, at most :data:`RESAMPLE_ROUNDS` draws in all, so it
returns only trustworthy rows or raises :class:`CapacityError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import LayeredCircuit, coupler_blocks
from .errors import CapacityError
from .rng import RandomStream

__all__ = [
    "MPSState",
    "CouplerMPO",
    "ZERO_CUTOFF",
    "DEFAULT_MAX_BOND",
    "SAMPLE_BLOCK",
    "DRAW_CHUNK",
    "RESAMPLE_ROUNDS",
    "init_input",
    "coupler_fock_amplitudes",
    "coupler_mpo",
    "apply_coupler",
    "outcome_probability",
    "canonicalize",
    "sample",
    "lossy_input_sample",
    "simulate_circuit",
]

# Relative threshold below which a Schmidt/singular value is an exact zero
# contaminated by rounding, never a physical weight.
ZERO_CUTOFF = 1e-12

DEFAULT_MAX_BOND = 4096

SAMPLE_BLOCK = 64  # prefix groups per product in sample; bounds its (groups, q, chi) temporaries
DRAW_CHUNK = 1 << 10  # rows per CDF inversion in sample; bounds its (rows, q) temporaries
RESAMPLE_ROUNDS = 8  # draws in all of a row whose chain-rule prefix keeps underflowing


@dataclass
class MPSState:
    """MPS over ``len(tensors)`` sites.

    ``tensors[i]`` is site i's right-canonical tensor B[i], shape
    (q_i, chi_left, chi_right) with q_i its local dimension; ``schmidts[i]``
    is the Schmidt vector of the bond between sites i and i+1.
    """

    tensors: list
    schmidts: list
    peak_bond: int = 1

    @property
    def modes(self) -> int:
        return len(self.tensors)


def init_input(pattern, caps) -> MPSState:
    """Product Fock state |pattern> as an MPS; site i has local dimension caps[i] + 1.

    ``caps`` holds one photon cutoff per site; a site capped at 0 is always vacuum.
    """
    pattern = [int(n) for n in pattern]
    caps = [int(c) for c in caps]
    if not pattern:
        raise ValueError("input pattern must cover at least one mode")
    if any(n < 0 for n in pattern):
        raise ValueError("photon counts must be non-negative")
    if len(caps) != len(pattern) or any(n > c for n, c in zip(pattern, caps)):
        raise ValueError(f"pattern {pattern} does not fit the site cutoffs {caps}")
    tensors = []
    for n, c in zip(pattern, caps):
        t = np.zeros((c + 1, 1, 1), dtype=complex)
        t[n, 0, 0] = 1.0
        tensors.append(t)
    return MPSState(tensors, [np.ones(1) for _ in range(len(pattern) - 1)])


def coupler_fock_amplitudes(block: np.ndarray, d: int) -> np.ndarray:
    """Fock-space matrix elements of a two-mode coupler up to d photons per mode.

    Returns c[p, s, n0, n1] = <p, s| B |n0, n1> for the unitary B whose action
    on creation operators is a0+ -> u00 a0+ + u10 a1+, a1+ -> u01 a0+ + u11 a1+
    (columns of ``block`` are inputs).  Amplitudes follow from the binomial
    expansion of the transformed creation-operator powers; factorials are
    assembled in log space so the result stays finite up to d ~ 30.

    On every total-photon sector with n0 + n1 <= d the matrix is exactly
    unitary; sectors above d lose the amplitudes that would overflow the
    cutoff, which is why exact simulation requires d >= total photons.
    """
    block = np.asarray(block, dtype=complex)
    if block.shape != (2, 2):
        raise ValueError(f"coupler block must be 2x2, got {block.shape}")
    if d < 1:
        raise ValueError(f"local photon cutoff must be >= 1, got {d}")
    q = d + 1
    lg = np.array([math.lgamma(k + 1) for k in range(q)])  # log k!
    # powers[k, e] = u_e**k for (u00, u10, u01, u11)
    powers = np.cumprod(np.vstack([np.ones(4), np.tile(block.T.ravel(), (d, 1))]), axis=0)
    # term j of amplitude (p, n0, n1): j of n0's photons and p - j of n1's reach p
    p, n0, n1, j = np.ogrid[:q, :q, :q, :q]
    s, stay0, move1 = n0 + n1 - p, n0 - j, p - j
    stay1 = n1 - move1
    valid = (s <= d) & (s >= 0) & (stay0 >= 0) & (move1 >= 0) & (stay1 >= 0)
    s, stay0, move1, stay1 = (np.clip(x, 0, d) for x in (s, stay0, move1, stay1))
    log_mag = (
        0.5 * (lg[p] + lg[s] - lg[n0] - lg[n1])
        + lg[n0] - lg[j] - lg[stay0]
        + lg[n1] - lg[move1] - lg[stay1]
    )
    terms = (
        np.exp(log_mag)
        * powers[j, 0] * powers[stay0, 1] * powers[move1, 2] * powers[stay1, 3]
    )
    amps = np.where(valid, terms, 0.0).sum(axis=3)  # (p, n0, n1)
    p, n0, n1 = np.indices((q, q, q))
    s = n0 + n1 - p
    live = (s >= 0) & (s <= d)
    c = np.zeros((q, q, q, q), dtype=complex)
    c[p[live], s[live], n0[live], n1[live]] = amps[live]
    return c


def _kept_svd(mat: np.ndarray) -> tuple:
    """Thin SVD of ``mat`` without the singular values below :data:`ZERO_CUTOFF`
    of the largest; one is kept even if all are zero."""
    u, sv, vh = np.linalg.svd(mat, full_matrices=False)
    keep = sv >= ZERO_CUTOFF * sv[0] if sv[0] > 0 else slice(0, 1)
    return u[:, keep], sv[keep], vh[keep]


@dataclass(frozen=True)
class CouplerMPO:
    """Two-site operator split: c[p,s,n,m] = sum_g x_left[p,n,g] sigmas[g] x_right[s,m,g]."""

    x_left: np.ndarray
    sigmas: np.ndarray
    x_right: np.ndarray


def coupler_mpo(block: np.ndarray, d: int) -> CouplerMPO:
    """SVD split of a coupler's Fock tensor between its two sites.

    The split groups (out, in) indices per site; the rank is at most
    (d+1)^2, so applying the operator multiplies a bond dimension by at most
    that factor.
    """
    c = coupler_fock_amplitudes(block, d)
    q = c.shape[0]
    mat = c.transpose(0, 2, 1, 3).reshape(q * q, q * q)  # rows (p, n0), cols (s, n1)
    u, sig, vh = _kept_svd(mat)
    x_left = u.reshape(q, q, -1)
    x_right = vh.T.reshape(q, q, -1)
    return CouplerMPO(x_left=x_left, sigmas=sig, x_right=x_right)


def apply_coupler(
    state: MPSState, mode: int, gate: np.ndarray, max_bond: int = DEFAULT_MAX_BOND
) -> MPSState:
    """Apply a two-mode coupler on (mode, mode+1) in place and re-split the bond.

    ``gate`` is the Fock tensor c[p, s, n0, n1] from
    :func:`coupler_fock_amplitudes` at the two sites' cutoffs.  It is contracted
    with the two-site block theta = B[k] B[k+1], and one SVD
    lambda[k-1] theta' = U S V^dagger of the gated block with the left
    Schmidt weights in front gives the new bond: lambda[k] = S,
    B[k+1] = V^dagger and B[k] = theta' V (Hastings' inverse-free update).
    Nothing is divided by a singular value or a neighbour weight, so the
    update stays stable when bonds carry small weights.  Singular values
    below 1e-12 of the largest are dropped as exact zeros; the Schmidt
    vector is stored as returned by the SVD, so the state norm is preserved
    to rounding and can be asserted by callers.
    """
    k = mode
    if not 0 <= k < state.modes - 1:
        raise ValueError(f"coupler site {k} out of range for {state.modes} modes")
    a, b = state.tensors[k], state.tensors[k + 1]
    (qa, c_l, _), (qb, _, c_r) = a.shape, b.shape
    if gate.shape != (qa, qb, qa, qb):
        raise ValueError(
            f"gate tensor shape {gate.shape} does not match local dimensions {qa}, {qb}"
        )

    # two-site block theta[a, (n0, n1), c], then the gate on the physical pair
    left = a.transpose(1, 0, 2).reshape(c_l * qa, -1)
    theta = (left @ b.transpose(1, 0, 2).reshape(-1, qb * c_r)).reshape(c_l, qa * qb, c_r)
    core = (gate.reshape(qa * qb, qa * qb) @ theta).reshape(c_l * qa, qb * c_r)  # (a, p), (s, c)

    lam_l = state.schmidts[k - 1] if k > 0 else np.ones(1)
    _, sv, vh = _kept_svd(lam_l.repeat(qa)[:, None] * core)
    chi_new = len(sv)
    if chi_new > max_bond:
        raise CapacityError(
            f"bond dimension {chi_new} exceeds the configured maximum {max_bond}"
        )

    state.tensors[k] = (core @ vh.conj().T).reshape(c_l, qa, chi_new).transpose(1, 0, 2)
    state.tensors[k + 1] = vh.reshape(chi_new, qb, c_r).transpose(1, 0, 2)
    state.schmidts[k] = sv
    state.peak_bond = max(state.peak_bond, chi_new)
    return state


def outcome_probability(state: MPSState, pattern) -> float:
    """Probability of measuring the photon-count pattern."""
    pattern = [int(n) for n in pattern]
    if len(pattern) != state.modes:
        raise ValueError(f"pattern covers {len(pattern)} modes, state has {state.modes}")
    if any(n < 0 for n in pattern):
        raise ValueError("photon counts must be non-negative")
    if any(n >= len(t) for n, t in zip(pattern, state.tensors)):
        return 0.0  # beyond a site's cutoff nothing has support
    vec = state.tensors[0][pattern[0], 0, :]
    for i in range(1, state.modes):
        vec = vec @ state.tensors[i][pattern[i]]
    return float(abs(vec[0]) ** 2)


def canonicalize(state: MPSState) -> MPSState:
    """Bring a hand-built state into normalized canonical form by two sweeps.

    A left-to-right QR sweep isolates the norm; a right-to-left SVD sweep then
    extracts the Schmidt vectors and leaves every site right-canonical.
    ``sample`` draws from ``simulate_circuit``'s states without it.
    """
    m = state.modes
    tensors = [t.astype(complex) for t in state.tensors]

    for i in range(m - 1):
        q, cl, cr = tensors[i].shape
        qmat, rmat = np.linalg.qr(tensors[i].transpose(1, 0, 2).reshape(cl * q, cr))
        tensors[i] = qmat.reshape(cl, q, -1).transpose(1, 0, 2)
        tensors[i + 1] = np.einsum("rb,nbc->nrc", rmat, tensors[i + 1])

    norm = np.linalg.norm(tensors[m - 1])
    if norm == 0.0:
        raise ValueError("cannot canonicalize the zero state")
    tensors[m - 1] = tensors[m - 1] / norm

    schmidts: list = [None] * (m - 1)
    for i in range(m - 1, 0, -1):
        q, cl, cr = tensors[i].shape
        u, sv, vh = _kept_svd(tensors[i].transpose(1, 0, 2).reshape(cl, q * cr))
        tensors[i] = vh.reshape(-1, q, cr).transpose(1, 0, 2)
        schmidts[i - 1] = sv / np.linalg.norm(sv)
        tensors[i - 1] = np.einsum("nab,br->nar", tensors[i - 1], u * sv[None, :])

    return MPSState(tensors, schmidts,
                    max(state.peak_bond, max((len(s) for s in schmidts), default=1)))


def _block_vectors(prefix: np.ndarray, mat: np.ndarray, q: int, start: int) -> np.ndarray:
    """Carried vectors ``start:start + SAMPLE_BLOCK`` times one site's (chi_l, q * chi_r) matrix,
    as (groups, q, chi_r)."""
    block = prefix[start:start + SAMPLE_BLOCK] @ mat
    return block.reshape(len(block), q, -1)


def sample(state: MPSState, rng: RandomStream, size: int,
           out: np.ndarray | None = None) -> np.ndarray:
    """Draw ``size`` photon-count patterns by the chain rule over modes.

    Takes ``simulate_circuit``'s state as it is, or a hand-built one after
    ``canonicalize``; each mode's law is normalised, so the norm is free.
    Rows whose prefix probability underflows (< 1e-300) are redrawn, in
    stream order, until none is left; a row still flagged after
    :data:`RESAMPLE_ROUNDS` draws in all raises :class:`CapacityError`.
    Returns a (size, modes) int array: ``out`` if given, filled in place.
    """
    counts, bad = _draw(state, rng, size, out)
    todo = np.flatnonzero(bad)
    for _ in range(RESAMPLE_ROUNDS - 1):
        if not len(todo):
            break
        counts[todo], bad = _draw(state, rng, len(todo))
        todo = todo[bad]
    if len(todo):
        raise CapacityError(
            f"chain-rule draws still underflow after {RESAMPLE_ROUNDS} rounds")
    return counts


def _draw(state: MPSState, rng: RandomStream, size: int,
          counts: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One chain-rule pass: ``size`` rows and the mask of those whose prefix underflowed.

    The conditional for each mode only involves the prefix contraction.
    It depends only on the counts drawn so far, so rows with the same prefix
    form one group with one carried vector, one weight and one underflow
    flag.  At each mode:

    * the conditional law of every group is worked out once, from products
      of :data:`SAMPLE_BLOCK` groups' carried vectors with the site tensor;
    * the mode's uniforms are one ``rng.random(size)`` draw, so the stream
      order is that of one ``rng.random((modes, size))`` call;
    * each row inverts its group's cumulative law with its own uniform, in
      chunks of :data:`DRAW_CHUNK` rows;
    * the (group, count) pairs that occur become the next mode's groups, in
      key order, without a sort.  Their carried vectors are picked from the
      blocks' products, taken again for every block but the last, so no
      more than one block's products are held.

    The rows do not depend on the block or chunk size.  Returns the
    (size, modes) int array of counts (``counts`` if given) and the (size,)
    bool mask of rows whose prefix probability underflowed (< 1e-300).
    """
    if counts is None:
        counts = np.empty((size, state.modes), dtype=int)
    elif counts.shape != (size, state.modes):
        raise ValueError(f"out {counts.shape} must be ({size}, {state.modes})")
    uniforms = np.empty(size)
    key = np.zeros(size, dtype=np.intp)  # each row's (group, count) key at the last mode
    ids = np.zeros(1, dtype=np.intp)  # each key's group at this mode
    prefix = np.ones((min(size, 1), 1), dtype=complex)  # one carried vector per group
    weight = np.ones(len(prefix))
    bad = np.zeros(len(prefix), dtype=bool)
    for i in range(state.modes):
        t = state.tensors[i]
        q = len(t)
        mat = t.transpose(1, 0, 2).reshape(t.shape[1], -1)  # (chi_l, q * chi_r)
        blocks = range(0, len(prefix), SAMPLE_BLOCK)
        probs = np.empty((len(prefix), q))
        for start in blocks:
            vecs = _block_vectors(prefix, mat, q, start)
            parts = vecs.view(np.float64)  # real and imaginary parts side by side
            probs[start:start + SAMPLE_BLOCK] = np.einsum("snb,snb->sn", parts, parts)
        cdf = np.cumsum(probs, axis=1)
        total = cdf[:, -1]
        rng.random(out=uniforms)
        occurs = np.zeros(probs.size, dtype=bool)
        for start in range(0, size, DRAW_CHUNK):
            rows = slice(start, start + DRAW_CHUNK)
            which = ids[key[rows]]
            # rows with total > 0 never pick a zero-probability count; the clip
            # only keeps rows already flagged as underflowed in range
            n = np.minimum((cdf[which] <= (uniforms[rows] * total[which])[:, None]).sum(axis=1),
                           q - 1)
            counts[rows, i] = n
            key[rows] = which * q + n
            occurs[key[rows]] = True
        keys = np.flatnonzero(occurs)  # the next groups, in key order
        ids = np.empty(len(occurs), dtype=np.intp)
        ids[keys] = np.arange(len(keys))
        parent, n = keys // q, keys % q
        chosen, total = probs[parent, n], total[parent]
        weight = weight[parent] * (chosen / np.where(total > 0.0, total, 1.0))
        bad = bad[parent] | (total < 1e-300) | (weight < 1e-300)
        # renormalize the carried vectors to keep magnitudes O(1)
        norm = np.sqrt(chosen)
        norm = np.where(norm > 0.0, norm, 1.0)[:, None]
        carried = np.empty((len(keys), t.shape[2]), dtype=complex)
        ends = np.searchsorted(parent, [*blocks, len(prefix)])
        for b in reversed(range(len(blocks))):  # the last block's product is still at hand
            start, lo, hi = blocks[b], ends[b], ends[b + 1]
            if b < len(blocks) - 1:
                vecs = _block_vectors(prefix, mat, q, start)
            carried[lo:hi] = vecs[parent[lo:hi] - start, n[lo:hi]] / norm[lo:hi]
        prefix = carried
    return counts, bad[ids[key]]


def lossy_input_sample(n: int, mu: float, rng: RandomStream) -> np.ndarray:
    """Thin n single photons: each survives independently with probability mu."""
    if n < 0:
        raise ValueError("photon count must be >= 0")
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"keep probability must lie in [0, 1], got {mu}")
    return (rng.random(n) < mu).astype(int)


def simulate_circuit(
    circuit: LayeredCircuit,
    pattern,
    max_bond: int = DEFAULT_MAX_BOND,
    gates: list | None = None,
) -> MPSState:
    """Evolve |pattern> through a lossless circuit, coupler by coupler.

    Site i's photon cutoff is the number of input photons in its light cone:
    the inputs that the gate list connects to output i.  No photon reaches a
    site from outside that set at any layer, so truncating to it drops only
    exact zeros and the evolution is exact.  A coupler whose two sites are
    both capped at 0 acts on vacuum alone and is skipped.

    Each layer's phases ride in the 2x2 coupler blocks: a phase on mode i
    multiplies i's output row of the last coupler that touched it, as nothing
    acts on i in between; one on a mode that no coupler has touched yet only
    rotates an input Fock state, a global phase, and is dropped.

    ``gates`` caches the couplers' Fock tensors across calls: one entry per
    coupler in application order, ``None`` until built; the folded blocks
    depend only on the circuit, so one list serves every pattern.  An entry
    missing or smaller than the larger cutoff of its two sites is (re)built
    at that cutoff and stored in the list; each is sliced to its two sites'
    own dimensions, which equals a build at them since a coupler's Fock
    amplitudes do not depend on the cutoff.  Loss is the caller's (see
    ``sampler.MPSSource``): pass ``circuit.lossless_copy()``.

    Raises
    ------
    ValueError
        If the circuit still carries loss.
    CapacityError
        If a bond would exceed ``max_bond``.
    """
    if circuit.uniform_mu() != 1.0:
        raise ValueError(
            "simulate_circuit needs lossless blocks; thin the input by the uniform loss "
            "and pass circuit.lossless_copy()"
        )
    pattern = np.array([int(x) for x in pattern], dtype=int)
    if len(pattern) != circuit.modes:
        raise ValueError(
            f"pattern covers {len(pattern)} modes, circuit has {circuit.modes}"
        )
    if gates is None:
        gates = [None] * len(circuit.gate_mode)
    elif len(gates) != len(circuit.gate_mode):
        raise ValueError("need one gate tensor per coupler of the circuit")
    offsets = circuit.offsets.tolist()
    blocks = coupler_blocks(circuit.theta, circuit.phi)
    last = np.full(circuit.modes, -1)  # row 2 * g + side of the coupler g last on each mode
    reach = np.eye(circuit.modes, dtype=bool)  # reach[i, j]: input j can reach site i
    for l in range(circuit.depth):
        g = np.arange(offsets[l], offsets[l + 1])
        k = circuit.gate_mode[g]  # disjoint pairs: a layer at once
        reach[k] = reach[k + 1] = reach[k] | reach[k + 1]
        last[k], last[k + 1] = 2 * g, 2 * g + 1
        on = np.flatnonzero(last >= 0)  # an untouched mode's phase is global: dropped
        blocks.reshape(-1, 2)[last[on]] *= np.exp(1j * circuit.phases[l, on])[:, None]
    state = init_input(pattern, reach @ pattern)
    q = [len(t) for t in state.tensors]
    for g, k in enumerate(circuit.gate_mode.tolist()):
        qa, qb = q[k], q[k + 1]
        if qa == qb == 1:
            continue
        if gates[g] is None or len(gates[g]) < max(qa, qb):
            gates[g] = coupler_fock_amplitudes(blocks[g], max(qa, qb) - 1)
        state = apply_coupler(state, k, gates[g][:qa, :qb, :qa, :qb], max_bond)
    return state
