"""Tests for the whole-array sampler paths in ``lossyboson.sampler``."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossyboson import circuit as circ
from lossyboson import mps
from lossyboson.circuit import decompose_losses, random_brickwork, transfer_matrix
from lossyboson.errors import CapacityError
from lossyboson.mps import (
    MPSState,
    canonicalize,
    lossy_input_sample,
    outcome_probability,
    sample,
    simulate_circuit,
)
from lossyboson.numerics import row_groups
from lossyboson.oracle import fock_output_distribution, lossy_exact_distribution
from lossyboson.rng import make_stream
from lossyboson.sampler import MPSSource, ThermalSource, build_sampler
from lossyboson.thermal import scattershot_herald
from reference import as_dict


def _two_mode_state(dead_weight: float) -> MPSState:
    """|1,0> branch with weight 1 - dead_weight, plus a branch with no continuation.

    Site 0 reads 0 or 1 photons with probabilities (1 - w, w); after a 1 the
    second site has no amplitude at all, so that prefix has probability zero.
    """
    schmidt = np.sqrt([1.0 - dead_weight, dead_weight])
    b0 = np.zeros((2, 1, 2), dtype=complex)
    b0[0, 0, 0], b0[1, 0, 1] = schmidt
    b1 = np.zeros((2, 2, 1), dtype=complex)
    b1[1, 0, 0] = 1.0
    return MPSState([b0, b1], [schmidt])


def _lossless_source(state: MPSState) -> MPSSource:
    """An MPS source for the input (1, 0) whose cached state is ``state``."""
    source = MPSSource(random_brickwork(2, 1, 1.0, make_stream(5)), 1.0, max_bond=16)
    source.states[(1, 0)] = state
    return source


def test_sample_flags_rows_behind_zero_probability_prefix():
    rows, bad = mps._draw(_two_mode_state(0.5), make_stream(3), 64)
    assert rows.shape == (64, 2) and bad.any() and not bad.all()
    assert np.array_equal(bad, rows[:, 0] == 1)
    assert (rows[~bad] == (0, 1)).all()


def test_underflowed_rows_are_redrawn():
    rows = _lossless_source(_two_mode_state(0.1)).draw(
        np.broadcast_to([1, 0], (200, 2)), make_stream(4))
    assert (rows == (0, 1)).all()


def test_sample_redraws_underflowed_rows_in_stream_order():
    """mps.sample keeps drawing only the flagged rows, each redraw right after the last."""
    state = _two_mode_state(0.3)
    rows = sample(state, make_stream(6), 100)
    assert (rows == (0, 1)).all()
    rng = make_stream(6)
    manual, bad = mps._draw(state, rng, 100)
    todo = np.flatnonzero(bad)
    assert len(todo)
    while len(todo):
        manual[todo], bad = mps._draw(state, rng, len(todo))
        todo = todo[bad]
    assert np.array_equal(rows, manual)


def test_rows_that_keep_underflowing_are_a_capacity_error():
    source = _lossless_source(_two_mode_state(1.0))
    with pytest.raises(CapacityError, match="still underflow after 8 rounds"):
        source.draw(np.broadcast_to([1, 0], (5, 2)), make_stream(4))


@pytest.mark.parametrize("tau, at_output", [(0.8, True), (0.1, False)])
def test_batched_mps_draw_matches_exact_lossy_law(tau, at_output):
    """r * mu**n >= 1 thins the counts of one evolved state; below it the input is thinned."""
    circuit = random_brickwork(5, 2, tau, make_stream(40))
    pattern = (1, 1, 0, 1, 0)
    n = 20000
    mu = tau**2
    assert (n * mu**3 >= 1.0) == at_output
    source = MPSSource(circuit, mu, max_bond=4096)
    rows = source.draw(np.broadcast_to(pattern, (n, 5)), make_stream(41))
    if at_output:
        assert list(source.states) == [pattern]
    else:  # only thinned patterns were evolved, never the full 3-photon state
        assert len(source.states) > 1
        assert all(sum(p) < 3 for p in source.states)
    outcomes, freq = np.unique(rows, axis=0, return_counts=True)
    counts = {tuple(int(x) for x in o): int(c) for o, c in zip(outcomes, freq)}
    u = transfer_matrix(circuit.lossless_copy())
    exact = as_dict(lossy_exact_distribution(u, mu, pattern))
    assert set(counts) <= set(exact)
    for outcome, p in exact.items():
        sigma = math.sqrt(n * p * (1.0 - p))
        assert abs(counts.get(outcome, 0) - n * p) <= 3.0 * sigma + 1e-9


def test_gate_tensors_sliced_from_one_build_match_per_pattern_build():
    circuit = random_brickwork(6, 3, 0.85, make_stream(42))
    rng = make_stream(43)
    inputs = np.zeros((60, 6), dtype=int)  # per-row inputs of 1-4 photons
    for row in inputs:
        row[rng.choice(6, size=rng.integers(1, 5), replace=False)] = 1
    source = MPSSource(circuit, 0.85**3, max_bond=4096)
    source.draw(inputs, rng)
    assert len({sum(p) for p in source.states}) >= 3
    # each coupler's gate is held at the largest light-cone cutoff its two sites met
    dims = np.array([[len(t) for t in st.tensors] for st in source.states.values()])
    for k, gate in zip(circuit.gate_mode.tolist(), source.gates):
        assert len(gate) == dims[:, k:k + 2].max()
    for pattern, state in source.states.items():
        ref = canonicalize(simulate_circuit(circuit.lossless_copy(), pattern))
        for got, want in zip(state.schmidts, ref.schmidts):
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)
        outcomes = [pattern, pattern[::-1], (sum(pattern),) + (0,) * 5]
        for outcome in outcomes:
            assert outcome_probability(state, outcome) == pytest.approx(
                outcome_probability(ref, outcome), abs=1e-12
            )


def test_gates_are_built_for_reached_couplers_and_rebuilt_only_to_grow():
    """A pattern's vacuum couplers get no gate; a later pattern reuses every gate large
    enough for its own cutoffs and rebuilds only the others, at the larger cutoff."""
    circuit = random_brickwork(6, 3, 0.85, make_stream(42))
    modes = circuit.gate_mode.tolist()
    source = MPSSource(circuit, 0.85**3, max_bond=4096)
    source.state((0, 0, 0, 0, 0, 1))  # light-cone cutoffs [0, 0, 1, 1, 1, 1]
    assert [g is None for g in source.gates] == [k == 0 for k in modes]
    source.state((1, 1, 0, 1, 0, 0))  # [3, 3, 3, 3, 1, 1]
    held = list(source.gates)
    assert [len(g) for g in held] == [4 if k < 4 else 2 for k in modes]
    source.state((1, 0, 0, 0, 0, 0))  # [1, 1, 1, 1, 0, 0]
    assert all(g is h for g, h in zip(source.gates, held))
    source.state((0, 0, 1, 1, 1, 1))  # [2, 2, 4, 4, 4, 4]
    for k, gate, old in zip(modes, source.gates, held):
        assert (gate is old) if k == 0 else len(gate) == 5
    assert len(source.states) == 4


def test_mps_draw_is_deterministic_under_seed():
    circuit = random_brickwork(6, 2, 0.9, make_stream(44))
    sampler = build_sampler("mps", circuit, (1, 0, 1, 0, 1, 0), eps=0.05)
    first = sampler.draw(make_stream(45), 400)
    second = sampler.draw(make_stream(45), 400)  # states now come from the cache
    assert first.shape == (400, 6)
    assert np.array_equal(first, second)


def test_mps_draw_handles_empty_requests():
    circuit = random_brickwork(4, 2, 0.9, make_stream(46))
    assert build_sampler("mps", circuit, (1, 1, 0, 0), eps=0.05).draw(
        make_stream(1), 0).shape == (0, 4)
    vacuum = build_sampler("mps", circuit, (0, 0, 0, 0), eps=0.05).draw(make_stream(1), 3)
    assert np.array_equal(vacuum, np.zeros((3, 4), dtype=int))


def _regrouping_draw(source, inputs, rng):
    """MPSSource.draw before it reused its grouping: the output-side rows are
    gathered and grouped a second time."""

    def lossless_rows(rows_in):
        patterns, which = row_groups(rows_in)
        out = np.empty(rows_in.shape, dtype=int)
        for g, pattern in enumerate(patterns):
            rows = np.flatnonzero(which == g)
            out[rows] = sample(source.state(tuple(int(x) for x in pattern)), rng, len(rows))
        return out

    patterns, which = row_groups(inputs)
    rows = np.bincount(which, minlength=len(patterns))
    at_input = (rows * source.mu ** patterns.sum(axis=1) < 1.0)[which]
    out = np.empty(inputs.shape, dtype=int)
    thinned = inputs[at_input]
    thinned[thinned.astype(bool)] = lossy_input_sample(np.count_nonzero(thinned), source.mu, rng)
    out[at_input] = lossless_rows(thinned)
    out[~at_input] = rng.binomial(lossless_rows(inputs[~at_input]), source.mu)
    return out


def test_mps_draw_keeps_the_stream_order_of_regrouping_draw():
    """Heralded inputs, some thinned at the input and some at the output: the
    draw takes uniforms and binomials in the same order as before."""
    circuit = random_brickwork(6, 2, 0.8, make_stream(52))
    inputs = scattershot_herald(6, 0.25, make_stream(53), 400)
    patterns, which = row_groups(inputs)
    rows = np.bincount(which)
    at_output = rows * 0.64 ** patterns.sum(axis=1) >= 1.0
    assert at_output.any() and not at_output.all()
    got = MPSSource(circuit, 0.8**2, max_bond=4096).draw(inputs, make_stream(54))
    want = _regrouping_draw(MPSSource(circuit, 0.8**2, max_bond=4096), inputs, make_stream(54))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("chunk", [1, 7])
def test_mps_draw_rows_do_not_depend_on_the_piece_size(chunk, monkeypatch):
    """Input-side and output-side rows of one heralded draw, thinned over pieces
    of 1 or 7 rows, are the rows of the default pieces and of int heralds."""
    circuit = random_brickwork(6, 2, 0.8, make_stream(52))
    inputs = scattershot_herald(6, 0.25, make_stream(53), 400)
    want = MPSSource(circuit, 0.8**2, max_bond=4096).draw(inputs.astype(int), make_stream(55))
    monkeypatch.setattr(mps, "DRAW_CHUNK", chunk)
    got = MPSSource(circuit, 0.8**2, max_bond=4096).draw(inputs, make_stream(55))
    assert np.array_equal(got, want)


def test_at_output_mps_draw_peaks_under_twice_its_output():
    """A fixed-pattern draw thinned at the output holds its counts once: drawn into
    place and thinned in place, beside pieces and a few values per row."""
    circuit = random_brickwork(14, 3, 0.9, make_stream(48))
    pattern = (1,) * 7 + (0,) * 7
    source = MPSSource(circuit, 0.9**3, max_bond=4096)
    source.state(pattern)  # evolved before tracing: only the draw is measured
    tracemalloc.start()  # sees numpy's buffers too
    try:
        rows = source.draw(np.broadcast_to(pattern, (20000, 14)), make_stream(49))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(source.states) == [pattern] and rows.shape == (20000, 14)
    assert peak <= 2.0 * rows.nbytes, peak / rows.nbytes


def test_at_input_mps_draw_peaks_under_twice_its_output():
    """A fixed-pattern draw thinned at the input keeps bool keys, not an int copy
    of its rows: the thinned inputs are grouped before the counts are allocated."""
    circuit = random_brickwork(14, 3, 0.5, make_stream(48))
    pattern = (1,) * 7 + (0,) * 7
    inputs = np.broadcast_to(pattern, (9362, 14))
    source = MPSSource(circuit, 0.5**3, max_bond=4096)
    source.draw(inputs, make_stream(49))  # the same thinned states, evolved before tracing
    evolved = len(source.states)
    tracemalloc.start()
    try:
        rows = source.draw(inputs, make_stream(49))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pattern not in source.states and len(source.states) == evolved > 1
    assert peak <= 2.0 * rows.nbytes, peak / rows.nbytes


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(modes=st.integers(2, 6), depth=st.integers(1, 3), tau=st.floats(0.05, 1.0),
       lam=st.floats(0.0, 0.9), size=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
def test_mps_draw_equals_regrouping_draw_on_heralded_inputs(modes, depth, tau, lam, size, seed):
    """Any mix of input-side and output-side heralds gives the rows of the reference draw."""
    circuit = random_brickwork(modes, depth, tau, make_stream(seed))
    inputs = scattershot_herald(modes, lam, make_stream(seed + 1), size)
    mu = circuit.uniform_mu()
    got = MPSSource(circuit, mu, max_bond=4096).draw(inputs, make_stream(seed + 2))
    want = _regrouping_draw(MPSSource(circuit, mu, max_bond=4096), inputs, make_stream(seed + 2))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_sampling_path_never_canonicalizes(monkeypatch):
    """Rows are drawn from the evolved states as they are: on the output side,
    on the input side and through scattershot's MPS inner source."""

    def refuse(state):
        raise AssertionError("canonicalize called on the sampling path")

    evolved = []

    def recording_simulate(circuit, pattern, *args):
        evolved.append(tuple(int(x) for x in pattern))
        return simulate_circuit(circuit, pattern, *args)

    monkeypatch.setattr(mps, "canonicalize", refuse)
    monkeypatch.setattr(mps, "simulate_circuit", recording_simulate)
    pattern = (1, 1, 0, 1, 0)
    for tau, at_output in ((0.8, True), (0.1, False)):
        evolved.clear()
        sampler = build_sampler("mps", random_brickwork(5, 2, tau, make_stream(40)), pattern,
                                eps=0.05)
        rows = sampler.draw(make_stream(41), 2000)
        assert sampler.regime == "mps" and rows.shape == (2000, 5)
        if at_output:  # one 3-photon state, thinned at the output
            assert evolved == [pattern]
        else:  # only thinned patterns, never the full state
            assert evolved and all(sum(p) < 3 for p in evolved)
    evolved.clear()
    sampler = build_sampler("scattershot", random_brickwork(3, 2, 1.0, make_stream(47)),
                            (1, 0, 0), eps=0.05, herald_lambda=0.3)
    rows = sampler.draw(make_stream(49), 500)
    assert sampler.regime == "mps" and rows.shape == (500, 3) and len(evolved) > 1


def test_scattershot_draw_matches_exact_heralded_law():
    """Collision-free heralds have P(h) proportional to lam**|h|; each feeds the lossless law."""
    circuit = random_brickwork(3, 2, 1.0, make_stream(47))
    lam, n = 0.3, 20000
    sampler = build_sampler("scattershot", circuit, (1, 0, 0), eps=0.05, herald_lambda=lam)
    assert sampler.regime == "mps"
    outcomes, freq = np.unique(sampler.draw(make_stream(49), n), axis=0, return_counts=True)
    counts = {tuple(int(x) for x in o): int(c) for o, c in zip(outcomes, freq)}
    u = transfer_matrix(circuit)
    heralds = list(itertools.product((0, 1), repeat=3))
    norm = sum(lam ** sum(h) for h in heralds)
    exact: dict = {}
    for h in heralds:
        for outcome, p in as_dict(fock_output_distribution(u, h)).items():
            exact[outcome] = exact.get(outcome, 0.0) + lam ** sum(h) / norm * p
    assert set(counts) <= set(exact) and len(exact) == 20
    for outcome, p in exact.items():
        sigma = math.sqrt(n * p * (1.0 - p))
        assert abs(counts.get(outcome, 0) - n * p) <= 3.0 * sigma + 1e-9


def test_oracle_draw_thins_each_photon_of_a_multi_photon_pattern():
    """On a uniformly lossy circuit each of the pattern's photons survives on its
    own: the law is the mixture over per-mode survivor counts of the lossless laws."""
    circuit = random_brickwork(4, 2, 0.8, make_stream(50))
    pattern, n, mu = (2, 0, 1, 0), 20000, 0.8**2
    sampler = build_sampler("oracle", circuit, pattern, eps=0.05)
    outcomes, freq = np.unique(sampler.draw(make_stream(51), n), axis=0, return_counts=True)
    counts = {tuple(int(x) for x in o): int(c) for o, c in zip(outcomes, freq)}
    u = transfer_matrix(circuit.lossless_copy())
    exact: dict = {}
    for s0, s2 in itertools.product(range(3), range(2)):
        weight = math.comb(2, s0) * mu ** (s0 + s2) * (1 - mu) ** (3 - s0 - s2)
        for outcome, p in as_dict(fock_output_distribution(u, (s0, 0, s2, 0))).items():
            exact[outcome] = exact.get(outcome, 0.0) + weight * p
    assert set(counts) <= set(exact) and len(exact) == 35
    assert sum(exact.values()) == pytest.approx(1.0, abs=1e-12)
    for outcome, p in exact.items():
        sigma = math.sqrt(n * p * (1.0 - p))
        assert abs(counts.get(outcome, 0) - n * p) <= 3.0 * sigma + 1e-9


# the four benchmark workloads: (modes, depth, tau, photons, mode)
BENCHMARK_SIZES = [(200, 200, 0.98262, 20, "thermal"), (14, 3, 0.9, 7, "mps"),
                   (30, 150, 0.97, 3, "scattershot"), (8, 4, 0.9, 6, "oracle")]


@pytest.mark.parametrize("modes,depth,tau,photons,mode", BENCHMARK_SIZES)
def test_uniform_loss_mu_max_is_tau_to_the_depth(modes, depth, tau, photons, mode):
    circuit = random_brickwork(modes, depth, tau, make_stream(60))
    pattern = (1,) * photons + (0,) * (modes - photons)
    mu_max = build_sampler(mode, circuit, pattern, eps=0.05, herald_lambda=0.1).plan.mu_max
    assert mu_max == tau**depth
    assert mu_max == pytest.approx(float(decompose_losses(transfer_matrix(circuit)).max()),
                                   rel=1e-12, abs=0.0)


def _mixed_brickwork(seed):
    c = random_brickwork(7, 30, 0.9, make_stream(seed))
    return dataclasses.replace(c, tau=np.where(np.arange(len(c.tau)) % 3, 0.9, 0.6))


def test_mixed_loss_mu_max_is_the_largest_svd_transmission_bit_for_bit():
    circuit = _mixed_brickwork(61)
    assert circuit.uniform_mu() is None
    plan = build_sampler("thermal", circuit, (1, 0, 1, 0, 0, 0, 0), eps=0.05).plan
    svd = float(decompose_losses(transfer_matrix(circuit)).max())
    assert plan.mu_max == svd and svd != pytest.approx(0.9**30, rel=1e-3)


def _layer_uniform_brickwork():
    """8-mode depth-4 brickwork whose layers transmit 0.95, 0.9, 0.85 and 0.8."""
    c = random_brickwork(8, 4, 1.0, make_stream(2))
    taus = np.array([0.95, 0.9, 0.85, 0.8])
    return dataclasses.replace(c, tau=taus[c.gate_layer()], idle_tau=taus)


def test_layer_uniform_loss_samples_exactly_at_the_product_of_layer_transmissions():
    """Loss uniform inside each layer commutes with the couplers: A = sqrt(mu) U.

    The MPS rows are checked against the per-mode means sum_j |A_ij|^2 of the
    lossy A itself; 4 sigma per mode over 8 modes has a false-alarm rate
    below 1e-3 for the fixed seed."""
    circuit = _layer_uniform_brickwork()
    mu = circuit.uniform_mu()
    assert mu == pytest.approx(0.95 * 0.9 * 0.85 * 0.8, rel=1e-15)
    a, u = transfer_matrix(circuit), transfer_matrix(circuit.lossless_copy())
    assert np.allclose(decompose_losses(a), mu, rtol=0.0, atol=1e-12)
    assert np.allclose(a, math.sqrt(mu) * u, rtol=0.0, atol=1e-12)
    pattern = (1, 1, 0, 1, 0, 1, 0, 0)
    sampler = build_sampler("auto", circuit, pattern, eps=0.05)
    assert sampler.regime == "mps" and sampler.plan.mu_max == mu
    exact = lossy_exact_distribution(u, mu, pattern)
    means = np.abs(a[:, np.flatnonzero(pattern)]) ** 2 @ np.ones(4)
    assert np.allclose(exact.weights @ exact.outcomes, means, rtol=0.0, atol=1e-12)
    sigma = np.sqrt(exact.weights @ (exact.outcomes - means) ** 2)
    n = 20000
    rows = sampler.draw(make_stream(3), n)
    assert (np.abs(rows.mean(axis=0) - means) <= 4.0 * sigma / math.sqrt(n)).all()


def _recording(monkeypatch):
    calls = []
    for name in ("transfer_matrix", "decompose_losses"):
        original = getattr(circ, name)

        def record(*args, name=name, original=original):
            calls.append((name,) + args[1:])
            return original(*args)

        monkeypatch.setattr(circ, name, record)
    return calls


def test_thermal_build_propagates_only_the_occupied_columns(monkeypatch):
    circuit = random_brickwork(9, 12, 0.8, make_stream(62))
    pattern = (0, 1, 0, 0, 1, 1, 0, 0, 1)
    calls = _recording(monkeypatch)
    sampler = build_sampler("thermal", circuit, pattern, eps=0.05)
    assert [(name, cols.tolist()) for name, cols in calls] == [("transfer_matrix", [1, 4, 5, 8])]
    monkeypatch.undo()
    full = ThermalSource(transfer_matrix(circuit), 0.8**12)
    want = full.draw(np.broadcast_to(pattern, (300, 9)), make_stream(63))
    got = sampler.draw(make_stream(63), 300)
    assert got.shape == (300, 9) and want.sum() > 0
    assert np.array_equal(got, want)


def test_uniform_loss_mps_build_takes_no_transfer_matrix(monkeypatch):
    circuit = random_brickwork(6, 3, 0.9, make_stream(64))
    calls = _recording(monkeypatch)
    sampler = build_sampler("mps", circuit, (1, 0, 1, 0, 1, 0), eps=0.05)
    assert sampler.draw(make_stream(65), 20).shape == (20, 6)
    assert calls == []


def test_mixed_loss_thermal_build_takes_one_full_matrix_and_one_svd(monkeypatch):
    circuit = _mixed_brickwork(66)
    calls = _recording(monkeypatch)
    sampler = build_sampler("thermal", circuit, (1, 1, 0, 0, 0, 0, 1), eps=0.05)
    assert [c[0] for c in calls] == ["transfer_matrix", "decompose_losses"]
    assert len(calls[0]) == 1  # every column
    monkeypatch.undo()
    mu_max = float(decompose_losses(transfer_matrix(circuit)).max())
    want = ThermalSource(transfer_matrix(circuit), mu_max).draw(
        np.broadcast_to((1, 1, 0, 0, 0, 0, 1), (200, 7)), make_stream(67))
    assert np.array_equal(sampler.draw(make_stream(67), 200), want)
