"""Tests for the matrix-product-state backend."""

import itertools
import json
import math

import numpy as np
import pytest

from lossyboson import mps
from lossyboson.circuit import (circuit_from_json, coupler_blocks, random_brickwork,
                                transfer_matrix)
from lossyboson.errors import CapacityError
from lossyboson.mps import (
    MPSState,
    apply_coupler,
    canonicalize,
    coupler_fock_amplitudes,
    coupler_mpo,
    init_input,
    lossy_input_sample,
    outcome_probability,
    sample,
    simulate_circuit,
)
from lossyboson.oracle import fock_output_distribution
from lossyboson.rng import make_stream
from reference import (apply_phase, as_dict, bond_dims, canonical_defect, haar_unitary,
                       recombine, state_norm, weighted_defect)

BS5050 = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def test_init_input_is_the_requested_product_state():
    st = init_input((1, 0, 2), [2, 2, 2])
    assert st.modes == 3 and [len(t) for t in st.tensors] == [3, 3, 3]
    assert outcome_probability(st, (1, 0, 2)) == pytest.approx(1.0)
    assert outcome_probability(st, (0, 1, 2)) == pytest.approx(0.0)
    assert state_norm(st) == pytest.approx(1.0, abs=1e-14)
    assert bond_dims(st) == (1, 1)


def test_init_input_rejects_occupation_over_cutoff():
    with pytest.raises(ValueError):
        init_input((3, 0), [2, 2])


def test_init_input_takes_per_site_cutoffs_down_to_vacuum():
    st = init_input((0, 2, 0), [0, 3, 1])
    assert [len(t) for t in st.tensors] == [1, 4, 2]
    assert outcome_probability(st, (0, 2, 0)) == pytest.approx(1.0)


@pytest.mark.parametrize("caps", [[0, 1], [1], [1, 1, 1]])
def test_init_input_rejects_per_site_cutoffs_that_miss_the_pattern(caps):
    with pytest.raises(ValueError):
        init_input((1, 0), caps)


# ---------------------------------------------------------------------------
# coupler Fock tensors
# ---------------------------------------------------------------------------


def test_identity_coupler_amplitudes_are_kronecker():
    c = coupler_fock_amplitudes(np.eye(2), d=3)
    q = 4
    for n0 in range(q):
        for n1 in range(q):
            if n0 + n1 > 3:
                continue
            expected = np.zeros((q, q))
            expected[n0, n1] = 1.0
            assert np.allclose(c[:, :, n0, n1], expected, atol=1e-14)


def test_balanced_coupler_two_photon_amplitudes():
    """Two photons meeting on a balanced coupler bunch: the (1,1) output dies."""
    c = coupler_fock_amplitudes(BS5050, d=2)
    root_half = 1.0 / math.sqrt(2.0)
    assert c[2, 0, 1, 1] == pytest.approx(root_half, abs=1e-14)
    assert c[0, 2, 1, 1] == pytest.approx(-root_half, abs=1e-14)
    assert abs(c[1, 1, 1, 1]) < 1e-14
    # single photon splits by the first column's amplitudes
    assert c[1, 0, 1, 0] == pytest.approx(BS5050[0, 0], abs=1e-14)
    assert c[0, 1, 1, 0] == pytest.approx(BS5050[1, 0], abs=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_coupler_amplitudes_unitary_per_photon_sector(d):
    rng = make_stream(50 + d)

    block = haar_unitary(2, rng)
    c = coupler_fock_amplitudes(block, d)
    for total in range(d + 1):
        pairs = [(n0, total - n0) for n0 in range(total + 1)]
        mat = np.array([[c[p, s, n0, n1] for (n0, n1) in pairs] for (p, s) in pairs])
        assert np.allclose(mat @ mat.conj().T, np.eye(len(pairs)), atol=1e-12)


def _loop_fock_amplitudes(block: np.ndarray, d: int) -> np.ndarray:
    """Reference: the binomial expansion summed term by term in Python."""
    (u00, u01), (u10, u11) = block
    q = d + 1
    lg = [math.lgamma(k + 1) for k in range(q)]
    c = np.zeros((q, q, q, q), dtype=complex)
    for n0 in range(q):
        for n1 in range(q):
            total = n0 + n1
            for p in range(max(0, total - d), min(total, d) + 1):
                s = total - p
                for j in range(max(0, p - n1), min(n0, p) + 1):
                    log_mag = (
                        0.5 * (lg[p] + lg[s] - lg[n0] - lg[n1])
                        + lg[n0] - lg[j] - lg[n0 - j]
                        + lg[n1] - lg[p - j] - lg[n1 - p + j]
                    )
                    c[p, s, n0, n1] += (
                        math.exp(log_mag) * u00**j * u10 ** (n0 - j)
                        * u01 ** (p - j) * u11 ** (n1 - p + j)
                    )
    return c


@pytest.mark.parametrize("d", range(1, 9))
def test_coupler_amplitudes_match_term_by_term_expansion(d):
    rng = make_stream(60 + d)
    for _ in range(3):
        block = haar_unitary(2, rng)
        got = coupler_fock_amplitudes(block, d)
        assert got.shape == (d + 1,) * 4
        assert np.abs(got - _loop_fock_amplitudes(block, d)).max() <= 1e-13


def test_coupler_mpo_recombines_exactly():
    rng = make_stream(55)

    block = haar_unitary(2, rng)
    d = 3
    mpo = coupler_mpo(block, d)
    assert len(mpo.sigmas) <= (d + 1) ** 2
    assert np.allclose(recombine(mpo), coupler_fock_amplitudes(block, d), atol=1e-12)


# ---------------------------------------------------------------------------
# gate application
# ---------------------------------------------------------------------------


def test_single_photon_splits_by_column_law():
    theta = 0.7
    block = coupler_blocks([theta], [0.0])[0]
    st = init_input((1, 0), [1, 1])
    st = apply_coupler(st, 0, coupler_fock_amplitudes(block, 1), max_bond=16)
    assert outcome_probability(st, (1, 0)) == pytest.approx(
        abs(block[0, 0]) ** 2, abs=1e-12
    )
    assert outcome_probability(st, (0, 1)) == pytest.approx(
        abs(block[1, 0]) ** 2, abs=1e-12
    )


def test_two_photon_interference_on_balanced_coupler():
    st = init_input((1, 1), [2, 2])
    st = apply_coupler(st, 0, coupler_fock_amplitudes(BS5050, 2), max_bond=16)
    assert outcome_probability(st, (1, 1)) == pytest.approx(0.0, abs=1e-12)
    assert outcome_probability(st, (2, 0)) == pytest.approx(0.5, abs=1e-12)
    assert outcome_probability(st, (0, 2)) == pytest.approx(0.5, abs=1e-12)


def test_coupler_then_inverse_restores_product_state():
    rng = make_stream(60)

    block = haar_unitary(2, rng)
    st = init_input((1, 1, 0), [2, 2, 2])
    st = apply_coupler(st, 0, coupler_fock_amplitudes(block, 2), max_bond=64)
    assert bond_dims(st)[0] > 1
    st = apply_coupler(st, 0, coupler_fock_amplitudes(block.conj().T, 2), max_bond=64)
    assert outcome_probability(st, (1, 1, 0)) == pytest.approx(1.0, abs=1e-10)
    # exact zeros reappear and are dropped, so the bond collapses back
    assert bond_dims(st)[0] == 1


def test_apply_coupler_preserves_norm():
    rng = make_stream(61)

    st = init_input((1, 1, 1, 0), [3, 3, 3, 3])
    for k in (0, 1, 2, 0, 1, 2):
        st = apply_coupler(st, k, coupler_fock_amplitudes(haar_unitary(2, rng), 3), max_bond=1024)
    assert state_norm(st) == pytest.approx(1.0, abs=1e-10)


def test_apply_coupler_respects_bond_cap():
    rng = make_stream(62)

    st = init_input((2, 2), [4, 4])
    with pytest.raises(CapacityError):
        apply_coupler(st, 0, coupler_fock_amplitudes(haar_unitary(2, rng), 4), max_bond=1)


def test_apply_phase_rotates_amplitudes_only():
    st = init_input((1, 0), [1, 1])
    st = apply_coupler(st, 0, coupler_fock_amplitudes(BS5050, 1), max_bond=4)
    before = [outcome_probability(st, o) for o in ((1, 0), (0, 1))]
    st = apply_phase(st, 0, 1.234)
    after = [outcome_probability(st, o) for o in ((1, 0), (0, 1))]
    assert np.allclose(before, after, atol=1e-14)
    assert state_norm(st) == pytest.approx(1.0, abs=1e-12)


def test_bond_growth_bounded_by_mpo_rank():
    rng = make_stream(63)

    d = 2
    st = init_input((1, 1, 0, 0), [d] * 4)
    for k in (0, 1, 2):
        block = haar_unitary(2, rng)
        rank = len(coupler_mpo(block, d).sigmas)
        assert rank <= (d + 1) ** 2
        before = max(bond_dims(st))
        st = apply_coupler(st, k, coupler_fock_amplitudes(block, d), max_bond=4096)
        assert max(bond_dims(st)) <= before * rank


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def test_updates_keep_canonical_form():
    rng = make_stream(64)

    st = init_input((1, 0, 1, 0), [2, 2, 2, 2])
    for k in (0, 2, 1, 0, 2):
        st = apply_coupler(st, k, coupler_fock_amplitudes(haar_unitary(2, rng), 2), max_bond=1024)
    assert canonical_defect(st) < 1e-10


def test_canonicalize_restores_form_and_unit_norm():
    rng = make_stream(65)

    st = init_input((1, 1, 0), [2, 2, 2])
    for k in (0, 1, 0):
        st = apply_coupler(st, k, coupler_fock_amplitudes(haar_unitary(2, rng), 2), max_bond=256)
    fixed = canonicalize(st)
    assert canonical_defect(fixed) < 1e-12
    assert state_norm(fixed) == pytest.approx(1.0, abs=1e-12)
    # probabilities unchanged by re-gauging (up to the overall norm)
    scale = state_norm(st)
    for outcome in ((1, 1, 0), (2, 0, 0), (0, 1, 1)):
        assert outcome_probability(fixed, outcome) == pytest.approx(
            outcome_probability(st, outcome) / scale, abs=1e-12
        )


def test_state_norm_matches_the_three_operand_contraction():
    """Two pairwise products per site give the one-einsum transfer contraction."""
    rng = make_stream(66)
    bonds, dims = [1, 3, 7, 5, 2, 1], [2, 4, 3, 5, 2]
    tensors = [rng.standard_normal((q, l, r)) + 1j * rng.standard_normal((q, l, r))
               for q, l, r in zip(dims, bonds, bonds[1:])]
    tensors[2] = tensors[2].transpose(0, 2, 1).copy().transpose(0, 2, 1)  # a strided site
    st = MPSState(tensors, [np.ones(b) for b in bonds[1:-1]])
    rho = np.ones((1, 1), dtype=complex)
    for t in tensors:
        rho = np.einsum("ab,nac,nbd->cd", rho, t.conj(), t)
    assert canonical_defect(st) > 1.0
    assert state_norm(st) == pytest.approx(rho[0, 0].real, rel=1e-12, abs=0.0)


def test_canonical_defect_sees_each_broken_condition():
    circuit = random_brickwork(4, 2, 1.0, make_stream(66))
    st = canonicalize(simulate_circuit(circuit, (1, 1, 0, 0)))
    assert canonical_defect(st) < 1e-12 and len(st.schmidts[1]) > 1
    wrong_weights = canonicalize(st)
    wrong_weights.schmidts[1] = wrong_weights.schmidts[1][::-1]
    assert canonical_defect(wrong_weights) > 0.01
    # site 1 has no amplitude after site 0's second branch: it is no right isometry,
    # while the weights miss by only that branch's 1e-3
    schmidt = np.sqrt([1.0 - 1e-3, 1e-3])
    b0 = np.zeros((2, 1, 2), dtype=complex)
    b0[0, 0, 0], b0[1, 0, 1] = schmidt
    b1 = np.zeros((2, 2, 1), dtype=complex)
    b1[1, 0, 0] = 1.0
    dead = mps.MPSState([b0, b1], [schmidt])
    assert canonical_defect(dead) > 0.5
    # the weighted check still sees the dead branch, at its Schmidt weight
    assert weighted_defect(wrong_weights) > 0.01
    assert weighted_defect(dead) == pytest.approx(1e-3, rel=1e-9)


@pytest.fixture(scope="module")
def evolved_brickworks():
    """Raw and canonicalized 8-photon states of lossless M=20, D=5 brickworks.

    On seeds 3 and 8 the raw states miss the unweighted right-isometry
    condition by 1e-9 to 1e-8, on rows whose Schmidt weight is too small to
    move any probability a draw resolves.
    """
    states = {}
    for seed in (3, 8):
        raw = simulate_circuit(random_brickwork(20, 5, 1.0, make_stream(seed)),
                               (1,) * 8 + (0,) * 12)
        states[seed] = raw, canonicalize(raw)
    return states


@pytest.mark.parametrize("seed", [3, 8])
def test_evolved_state_is_canonical_wherever_it_has_weight(evolved_brickworks, seed):
    raw, _ = evolved_brickworks[seed]
    assert canonical_defect(raw) > 1e-9
    assert weighted_defect(raw) <= 1e-12


@pytest.mark.parametrize("seed", [3, 8])
def test_evolved_state_draws_as_the_canonicalized_state(evolved_brickworks, seed):
    raw, fixed = evolved_brickworks[seed]
    rows = sample(raw, make_stream(90 + seed), 500)
    assert np.array_equal(rows, sample(fixed, make_stream(90 + seed), 500))
    assert (rows.sum(axis=1) == 8).all()
    for row in rows[:50]:
        assert outcome_probability(raw, row) == pytest.approx(
            outcome_probability(fixed, row), rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# full-circuit simulation against the permanent oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3, "json"])
def test_simulation_matches_permanent_oracle(seed):
    """Brickworks phase only the modes a layer's couplers touch; the JSON circuit also
    phases modes before their first coupler, between two and after their last."""
    if seed == "json":
        circuit, pattern = _unordered_json_circuit(), (0, 1, 1, 1, 0, 0, 1)
    else:
        rng = make_stream(300 + seed)
        modes = int(rng.integers(2, 7))
        depth = int(rng.integers(1, 5))
        photons = int(rng.integers(1, min(modes, 3) + 1))
        circuit = random_brickwork(modes, depth, 1.0, rng)
        pattern = (1,) * photons + (0,) * (modes - photons)
    exact = fock_output_distribution(transfer_matrix(circuit), pattern)
    st = simulate_circuit(circuit, pattern)
    probs = np.array([outcome_probability(st, o) for o in exact.outcomes])
    assert 0.5 * np.abs(probs - exact.weights).sum() < 1e-10


def test_simulation_peak_bond_within_global_bound():
    rng = make_stream(70)
    d = 2
    for depth in (1, 2, 3):
        circuit = random_brickwork(6, depth, 1.0, rng)
        st = simulate_circuit(circuit, (1, 1, 0, 0, 0, 0))
        assert st.peak_bond <= (d + 1) ** (2 * depth)


def test_simulate_rejects_lossy_circuit():
    rng = make_stream(71)
    circuit = random_brickwork(4, 2, 0.9, rng)
    with pytest.raises(ValueError):
        simulate_circuit(circuit, (1, 0, 0, 0))


def _light_cone_caps(circuit, pattern) -> list:
    """Photons each site can receive: every input's set of reachable sites, followed
    gate by gate (a layer's couplers are disjoint, so their order within it is free)."""
    sets = [{j} for j in range(circuit.modes)]
    for k in circuit.gate_mode.tolist():
        sets[k] = sets[k + 1] = sets[k] | sets[k + 1]
    return [sum(pattern[j] for j in s) for s in sets]


def _uniform_cutoff_evolution(circuit, pattern):
    """Reference: every site at cutoff max(1, N) and every coupler applied at it."""
    d = max(1, sum(pattern))
    state = init_input(pattern, [d] * len(pattern))
    blocks = coupler_blocks(circuit.theta, circuit.phi)
    for l in range(circuit.depth):
        for g in range(circuit.offsets[l], circuit.offsets[l + 1]):
            state = apply_coupler(state, int(circuit.gate_mode[g]),
                                  coupler_fock_amplitudes(blocks[g], d))
        for i, theta in enumerate(circuit.phases[l].tolist()):
            state = apply_phase(state, i, theta)
    return state


def _unordered_json_circuit():
    """7 modes, 3 layers whose couplers are listed against mode order, read from JSON."""
    rng = make_stream(91)
    layers = [{"phases": rng.uniform(0.0, 2.0 * math.pi, 7).tolist(),
               "couplers": [{"mode": k, "theta": float(rng.uniform(0.1, 1.4)),
                             "phi": float(rng.uniform(0.0, 2.0 * math.pi))} for k in modes]}
              for modes in ([4, 0], [5, 1], [2, 0, 4])]
    return circuit_from_json(json.dumps({"modes": 7, "layers": layers}))


LIGHT_CONE_CASES = [
    ("brickwork", (7, 2, 1), (1, 1, 0, 0, 0, 0, 0)),
    ("brickwork", (8, 3, 2), (0, 1, 0, 2, 0, 0, 0, 0)),
    ("brickwork", (6, 4, 3), (1, 0, 1, 0, 1, 0)),
    ("brickwork", (5, 1, 4), (0, 0, 0, 0, 1)),
    ("brickwork", (9, 2, 5), (0, 0, 0, 0, 2, 1, 0, 0, 0)),
    ("brickwork", (6, 2, 6), (0,) * 6),
    ("json", None, (0, 0, 0, 2, 0, 0, 1)),
]


@pytest.mark.parametrize("kind, size, pattern", LIGHT_CONE_CASES)
def test_light_cone_evolution_matches_uniform_cutoff_evolution(kind, size, pattern):
    """Each site's dimension is its light-cone cap + 1; the state has the probabilities
    and Schmidt values of an evolution with every site at N + 1; each coupler's gate is
    built at the larger cap of its two sites, and never for two vacuum sites."""
    if kind == "json":
        circuit = _unordered_json_circuit()
    else:
        modes, depth, seed = size
        circuit = random_brickwork(modes, depth, 1.0, make_stream(700 + seed))
    caps = _light_cone_caps(circuit, pattern)
    gates = [None] * len(circuit.gate_mode)
    st = simulate_circuit(circuit, pattern, gates=gates)
    ref = _uniform_cutoff_evolution(circuit, pattern)
    assert [len(t) for t in st.tensors] == [c + 1 for c in caps]
    if kind == "json":
        assert caps == [0, 0, 2, 2, 1, 1, 1]
    for k, gate in zip(circuit.gate_mode.tolist(), gates):
        need = max(caps[k], caps[k + 1])
        assert (gate is None) if need == 0 else gate.shape == (need + 1,) * 4
    n = sum(pattern)
    for cells in itertools.combinations_with_replacement(range(circuit.modes), n):
        outcome = np.bincount(np.array(cells, dtype=int), minlength=circuit.modes)
        assert outcome_probability(st, outcome) == pytest.approx(
            outcome_probability(ref, outcome), abs=1e-12)
    assert bond_dims(st) == bond_dims(ref)
    for got, want in zip(st.schmidts, ref.schmidts):
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def test_simulate_slices_gates_built_at_a_larger_cutoff():
    """Gates cached for a pattern with larger light-cone caps are sliced to a smaller
    pattern's two-site dimensions, not rebuilt, and give the state a fresh build gives."""
    circuit = random_brickwork(6, 3, 1.0, make_stream(72))
    pattern = (1, 0, 1, 0, 0, 0)
    gates = [None] * len(circuit.gate_mode)
    simulate_circuit(circuit, (1, 1, 1, 0, 1, 0), gates=gates)
    held = list(gates)
    sliced = simulate_circuit(circuit, pattern, gates=gates)
    built = simulate_circuit(circuit, pattern)
    assert all(g is h for g, h in zip(gates, held))
    assert [len(t) for t in sliced.tensors] == [3, 3, 3, 3, 2, 2]
    assert [c + 1 for c in _light_cone_caps(circuit, pattern)] == [3, 3, 3, 3, 2, 2]
    assert [len(g) for g in gates] == [4, 5, 3, 5, 5, 4, 5, 3]  # a fresh build: 3 or 2
    for got, want in zip(sliced.tensors + sliced.schmidts, built.tensors + built.schmidts):
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_chain_rule_samples_match_state_probabilities():
    rng = make_stream(80)
    circuit = random_brickwork(4, 2, 1.0, rng)
    st = simulate_circuit(circuit, (1, 1, 0, 0))  # drawn from as the sampler does
    exact = as_dict(fock_output_distribution(transfer_matrix(circuit), (1, 1, 0, 0)))
    trials = 20000
    outcomes, freq = np.unique(sample(st, rng, trials), axis=0, return_counts=True)
    counts = {tuple(int(x) for x in o): int(c) for o, c in zip(outcomes, freq)}
    assert set(counts) <= set(exact)
    tvd = 0.5 * sum(abs(counts.get(o, 0) / trials - p) for o, p in exact.items())
    assert tvd < 0.02


def test_sampling_is_deterministic_under_seed():
    rng = make_stream(81)
    circuit = random_brickwork(3, 2, 1.0, rng)
    st = canonicalize(simulate_circuit(circuit, (1, 0, 0)))
    s1 = sample(st, make_stream(9), 5)
    s2 = sample(st, make_stream(9), 5)
    assert s1.shape == (5, 3)
    assert np.array_equal(s1, s2)


def test_sample_rows_do_not_depend_on_block_size(monkeypatch):
    circuit = random_brickwork(5, 3, 1.0, make_stream(83))
    st = canonicalize(simulate_circuit(circuit, (1, 0, 1, 1, 0)))
    size = 150
    rows = {}
    for block in (1, 7, 64, size + 1):
        monkeypatch.setattr(mps, "SAMPLE_BLOCK", block)
        rows[block] = sample(st, make_stream(84), size)
    assert rows[1].shape == (size, 5) and (rows[1].sum(axis=1) == 3).all()
    for block_rows in rows.values():
        assert np.array_equal(block_rows, rows[1])


def _per_row_sample(state, rng, size):
    """One chain-rule pass before prefix groups: every row works out every conditional of
    its own.  Returns the counts and the underflow mask, as ``mps._draw`` does."""
    uniforms = rng.random((state.modes, size))
    mats = [(t.transpose(1, 0, 2).reshape(t.shape[1], -1), *t.shape[::2])
            for t in state.tensors]
    counts = np.empty((size, state.modes), dtype=int)
    bad = np.zeros(size, dtype=bool)
    for start in range(0, size, 64):
        block = slice(start, min(start + 64, size))
        rows = np.arange(block.stop - start)
        prefix = np.ones((len(rows), 1), dtype=complex)
        weight = np.ones(len(rows))
        for i, (mat, q, chi_r) in enumerate(mats):
            vecs = (prefix @ mat).reshape(len(rows), q, chi_r)
            parts = vecs.view(np.float64)
            probs = np.einsum("snb,snb->sn", parts, parts)
            cdf = np.cumsum(probs, axis=1)
            total = cdf[:, -1]
            n = np.minimum((cdf <= (uniforms[i, block] * total)[:, None]).sum(axis=1), q - 1)
            counts[block, i] = n
            chosen = probs[rows, n]
            weight = weight * (chosen / np.where(total > 0.0, total, 1.0))
            bad[block] |= (total < 1e-300) | (weight < 1e-300)
            norm = np.sqrt(chosen)
            prefix = vecs[rows, n] / np.where(norm > 0.0, norm, 1.0)[:, None]
    return counts, bad


@pytest.fixture(scope="module")
def shallow_state():
    """The 7-photon state of a 14-mode, depth-3 brickwork: bonds up to 28, light-cone
    dimensions from 7 down to 1."""
    circuit = random_brickwork(14, 3, 1.0, make_stream(85))
    return canonicalize(simulate_circuit(circuit, (1,) * 7 + (0,) * 7))


@pytest.mark.parametrize("block, chunk", [(64, 1024), (5, 1024), (64, 100), (1, 1)])
def test_grouped_sample_matches_per_row_sample(shallow_state, block, chunk, monkeypatch):
    monkeypatch.setattr(mps, "SAMPLE_BLOCK", block)
    monkeypatch.setattr(mps, "DRAW_CHUNK", chunk)
    size = 3000 if block > 1 else 300
    rows = sample(shallow_state, make_stream(86), size)
    # later modes hold more distinct prefixes than one product takes
    assert len({r.tobytes() for r in rows[:, :6]}) > 2 * mps.SAMPLE_BLOCK
    assert np.array_equal(rows, _per_row_sample(shallow_state, make_stream(86), size)[0])


def test_sample_into_out_fills_it_with_the_same_rows(shallow_state):
    out = np.full((500, 14), -1)
    assert sample(shallow_state, make_stream(88), 500, out=out) is out
    assert np.array_equal(out, sample(shallow_state, make_stream(88), 500))
    with pytest.raises(ValueError, match=r"out \(499, 14\) must be \(500, 14\)"):
        sample(shallow_state, make_stream(88), 500, out=out[1:])


@pytest.mark.parametrize("size", [0, 1])
def test_grouped_sample_matches_per_row_sample_on_tiny_draws(shallow_state, size):
    rows = sample(shallow_state, make_stream(87), size)
    assert rows.shape == (size, 14)
    assert np.array_equal(rows, _per_row_sample(shallow_state, make_stream(87), size)[0])


def test_grouped_sample_flags_the_same_underflowed_rows():
    """Site 0 reads 0 or 1 photons with probability 1/2 each.  After a 1, site 1's
    amplitudes are scaled by 1e-160, so its conditional law sums to about 1e-320:
    those rows still draw their count from it and are flagged, the others are not."""
    schmidt = np.sqrt([0.5, 0.5])
    b0 = np.zeros((2, 1, 2), dtype=complex)
    b0[0, 0, 0], b0[1, 0, 1] = schmidt
    b1 = np.zeros((2, 2, 1), dtype=complex)
    b1[:, 0, 0] = b1[:, 1, 0] = [0.6, 0.8]
    b1[:, 1, 0] *= 1e-160
    st = mps.MPSState([b0, b1], [schmidt])
    rows, bad = mps._draw(st, make_stream(89), 500)
    per_row, per_row_bad = _per_row_sample(st, make_stream(89), 500)
    assert np.array_equal(bad, rows[:, 0] == 1) and bad.any() and not bad.all()
    assert set(rows[bad, 1].tolist()) == {0, 1}  # counts drawn from the underflowed law
    assert np.array_equal(bad, per_row_bad)
    assert np.array_equal(rows, per_row)


class _ZeroUniforms:
    """A stream whose every uniform is 0, so each mode draws its lowest count with support."""

    def random(self, size=None, out=None):
        if out is None:
            return np.zeros(size)
        out[...] = 0.0
        return out


@pytest.mark.parametrize("modes, flagged", [(7, False), (8, True)])
def test_sample_flags_rows_whose_prefix_weight_underflows(modes, flagged):
    """Each mode reads 0 photons with probability 1e-40 and has a normalized law, so no
    mode's total underflows; the all-zero row's probability 1e-40**modes falls below
    1e-300 only at 8 modes, and then every row is flagged by its weight alone."""
    site = np.zeros((2, 1, 1), dtype=complex)
    site[:, 0, 0] = [1e-20, math.sqrt(1.0 - 1e-40)]
    st = mps.MPSState([site] * modes, [np.ones(1)] * (modes - 1))
    assert canonical_defect(st) < 1e-15  # every conditional total is 1
    for draw in (mps._draw, _per_row_sample):
        rows, bad = draw(st, _ZeroUniforms(), 50)
        assert not rows.any() and (bad.all() if flagged else not bad.any())


def test_lossy_input_thinning_statistics():
    rng = make_stream(82)
    mu = 0.37
    draws = np.concatenate([lossy_input_sample(10, mu, rng) for _ in range(2000)])
    assert set(np.unique(draws)) <= {0, 1}
    assert draws.mean() == pytest.approx(mu, abs=0.01)


def test_lossy_input_edge_rates():
    rng = make_stream(83)
    assert lossy_input_sample(5, 0.0, rng).sum() == 0
    assert lossy_input_sample(5, 1.0, rng).sum() == 5
