"""Tests for the whole-array sampler paths in ``lossyboson.sampler``."""

import itertools
import math

import numpy as np
import pytest

from lossyboson import (
    CapacityError,
    MPSState,
    ResampleSignal,
    canonicalize,
    fock_output_distribution,
    lossy_exact_distribution,
    make_stream,
    outcome_probability,
    random_brickwork,
    sample,
    simulate_circuit,
    transfer_matrix,
)
from lossyboson.sampler import MPSSource, build_sampler


def _two_mode_state(dead_weight: float) -> MPSState:
    """|1,0> branch with weight 1 - dead_weight, plus a branch with no continuation.

    Site 0 reads 0 or 1 photons with probabilities (1 - w, w); after a 1 the
    second site has no amplitude at all, so that prefix has probability zero.
    """
    g0 = np.zeros((2, 1, 2), dtype=complex)
    g0[0, 0, 0] = g0[1, 0, 1] = 1.0
    g1 = np.zeros((2, 2, 1), dtype=complex)
    g1[1, 0, 0] = 1.0
    schmidt = np.sqrt([1.0 - dead_weight, dead_weight])
    return MPSState(modes=2, local_dim=2, gammas=[g0, g1], schmidts=[schmidt])


def _lossless_source(state: MPSState) -> MPSSource:
    """An MPS source for the input (1, 0) whose cached state is ``state``."""
    source = MPSSource(random_brickwork(2, 1, 1.0, make_stream(5)), max_bond=16)
    source.states[(1, 0)] = state
    return source


def test_sample_flags_rows_behind_zero_probability_prefix():
    with pytest.raises(ResampleSignal) as info:
        sample(_two_mode_state(0.5), make_stream(3), 64)
    rows, bad = info.value.rows, info.value.bad
    assert rows.shape == (64, 2) and bad.any() and not bad.all()
    assert np.array_equal(bad, rows[:, 0] == 1)
    assert (rows[~bad] == (0, 1)).all()


def test_underflowed_rows_are_redrawn():
    rows = _lossless_source(_two_mode_state(0.1)).draw(
        np.broadcast_to([1, 0], (200, 2)), make_stream(4))
    assert (rows == (0, 1)).all()


def test_rows_that_keep_underflowing_are_a_capacity_error():
    source = _lossless_source(_two_mode_state(1.0))
    with pytest.raises(CapacityError, match=r"\[1, 0\]"):
        source.draw(np.broadcast_to([1, 0], (5, 2)), make_stream(4))


def test_batched_mps_draw_matches_exact_lossy_law():
    circuit = random_brickwork(5, 2, 0.8, make_stream(40))
    pattern = (1, 1, 0, 1, 0)
    n = 20000
    rows = build_sampler("mps", circuit, pattern, eps=0.05).draw(make_stream(41), n)
    outcomes, freq = np.unique(rows, axis=0, return_counts=True)
    counts = {tuple(int(x) for x in o): int(c) for o, c in zip(outcomes, freq)}
    u = transfer_matrix(circuit.lossless_copy())
    exact = lossy_exact_distribution(
        u, 0.8**2, 3, input_modes=np.array([0, 1, 3])
    ).as_dict()
    assert set(counts) <= set(exact)
    for outcome, p in exact.items():
        sigma = math.sqrt(n * p * (1.0 - p))
        assert abs(counts.get(outcome, 0) - n * p) <= 3.0 * sigma + 1e-9


def test_gate_tensors_sliced_from_one_build_match_per_pattern_build():
    circuit = random_brickwork(6, 3, 0.85, make_stream(42))
    source = MPSSource(circuit, max_bond=4096)
    source.draw(np.broadcast_to([1, 1, 0, 1, 1, 0], (300, 6)), make_stream(43))
    cutoffs = {max(1, sum(p)) for p in source.states}
    assert len(cutoffs) >= 3 and source.gate_cutoff == max(cutoffs) == 4
    for pattern, state in source.states.items():
        ref = canonicalize(simulate_circuit(circuit.lossless_copy(), pattern))
        for got, want in zip(state.schmidts, ref.schmidts):
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)
        outcomes = [pattern, pattern[::-1], (sum(pattern),) + (0,) * 5]
        for outcome in outcomes:
            assert outcome_probability(state, outcome) == pytest.approx(
                outcome_probability(ref, outcome), abs=1e-12
            )


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
        for outcome, p in fock_output_distribution(u, h).as_dict().items():
            exact[outcome] = exact.get(outcome, 0.0) + lam ** sum(h) / norm * p
    assert set(counts) <= set(exact) and len(exact) == 20
    for outcome, p in exact.items():
        sigma = math.sqrt(n * p * (1.0 - p))
        assert abs(counts.get(outcome, 0) - n * p) <= 3.0 * sigma + 1e-9
