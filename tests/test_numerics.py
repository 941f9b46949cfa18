"""Tests for permanents, Haar sampling, and distributions."""

import itertools
import math

import numpy as np
import pytest

from lossyboson import numerics
from lossyboson.errors import CapacityError
from lossyboson.numerics import Distribution, permanent, total_variation
from lossyboson.rng import make_stream
from reference import as_dict, haar_unitary, permanent_naive


def test_permanent_empty_matrix_is_one():
    assert permanent(np.zeros((0, 0))) == 1.0


def test_permanent_one_by_one():
    assert permanent(np.array([[3.5]])) == pytest.approx(3.5)


def test_permanent_two_by_two_hand_value():
    # perm([[a, b], [c, d]]) = a*d + b*c
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert permanent(a) == pytest.approx(1 * 4 + 2 * 3)


def test_permanent_three_by_three_hand_value():
    a = np.arange(1, 10, dtype=float).reshape(3, 3)
    # sum over all 6 permutations of products
    expected = sum(
        a[0, p[0]] * a[1, p[1]] * a[2, p[2]]
        for p in itertools.permutations(range(3))
    )
    assert permanent(a) == pytest.approx(expected)


def test_permanent_identity_and_ones():
    for n in range(1, 7):
        assert permanent(np.eye(n)) == pytest.approx(1.0)
        assert permanent(np.ones((n, n))) == pytest.approx(math.factorial(n))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_permanent_matches_naive_on_random_complex(n):
    rng = make_stream(100 + n)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    assert np.allclose(permanent(a), permanent_naive(a), atol=1e-10)


def test_permanent_invariant_under_row_and_column_permutation():
    rng = make_stream(7)
    a = rng.normal(size=(5, 5))
    ref = permanent(a)
    perm_rows = rng.permutation(5)
    perm_cols = rng.permutation(5)
    assert permanent(a[perm_rows]) == pytest.approx(ref)
    assert permanent(a[:, perm_cols]) == pytest.approx(ref)


def test_permanent_is_linear_in_each_row():
    rng = make_stream(8)
    a = rng.normal(size=(4, 4))
    scaled = a.copy()
    scaled[2] *= 2.5
    assert permanent(scaled) == pytest.approx(2.5 * permanent(a))


def test_permanent_rejects_oversized_input():
    with pytest.raises(CapacityError):
        permanent(np.eye(21))
    with pytest.raises(CapacityError):
        permanent(np.zeros((2, 21, 21)))


def test_permanent_rejects_nonsquare():
    for shape in ((2, 3), (4, 2, 3), (3,)):
        with pytest.raises(ValueError):
            permanent(np.ones(shape))


@pytest.mark.parametrize("chunk", [numerics.PERMANENT_CHUNK, 7])
def test_stacked_permanent_matches_single_calls_and_naive(monkeypatch, chunk):
    """A (2, 3, n, n) stack gives each matrix's permanent; chunk 7 splits signs and matrices."""
    monkeypatch.setattr(numerics, "PERMANENT_CHUNK", chunk)
    rng = make_stream(300)
    for n in range(7):
        stack = rng.normal(size=(2, 3, n, n)) + 1j * rng.normal(size=(2, 3, n, n))
        got = permanent(stack)
        assert got.shape == (2, 3)
        single = np.array([[permanent(m) for m in row] for row in stack])
        naive = np.array([[permanent_naive(m) for m in row] for row in stack])
        assert isinstance(permanent(stack[0, 0]), complex)
        assert np.allclose(got, single, rtol=1e-12, atol=1e-12)
        assert np.allclose(got, naive, rtol=1e-10, atol=1e-10)


def test_haar_unitary_is_unitary():
    rng = make_stream(0)
    for m in (1, 2, 5, 9):
        u = haar_unitary(m, rng)
        assert np.allclose(u @ u.conj().T, np.eye(m), atol=1e-12)


def test_haar_unitary_entry_moments():
    """E|U_ij|^2 = 1/m for Haar-distributed unitaries."""
    rng = make_stream(1)
    m = 4
    acc = np.zeros((m, m))
    trials = 3000
    for _ in range(trials):
        acc += np.abs(haar_unitary(m, rng)) ** 2
    acc /= trials
    assert np.allclose(acc, 1.0 / m, atol=0.02)


def test_haar_unitary_deterministic_under_seed():
    u1 = haar_unitary(5, make_stream(42))
    u2 = haar_unitary(5, make_stream(42))
    assert np.array_equal(u1, u2)


def _haar_reference(m, rng):
    """One Ginibre draw (m*m real normals, then m*m imaginary), QR, R's phases divided out."""
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def test_haar_unitary_stack_equals_single_draws():
    rng_a, rng_b = make_stream(43), make_stream(43)
    stack = haar_unitary(3, rng_a, 6)
    assert stack.shape == (6, 3, 3)
    assert np.array_equal(stack, np.array([_haar_reference(3, rng_b) for _ in range(6)]))
    assert np.array_equal(haar_unitary(4, rng_a), _haar_reference(4, rng_b))
    assert haar_unitary(3, rng_a, 0).shape == (0, 3, 3)
    assert rng_a.random() == rng_b.random()


def test_distribution_basic_accessors():
    d = Distribution(outcomes=((0, 1), (1, 0)), weights=np.array([0.25, 0.75]))
    assert as_dict(d) == {(0, 1): 0.25, (1, 0): 0.75}
    assert d.truncation_error == 0.0


def test_distribution_outcomes_are_read_only_count_rows():
    d = Distribution(outcomes=[[0, 1], [1, 0]], weights=np.array([0.25, 0.75]))
    assert d.outcomes.shape == (2, 2) and d.outcomes.dtype == int
    with pytest.raises(ValueError):
        d.outcomes[0, 0] = 2


@pytest.mark.parametrize("outcomes", [[[1, 0], [0, 1, 0]], [0, 1], [[1, -1], [0, 0]],
                                      [[1.9, 0], [0, 1]], [[True, False], [False, True]]],
                         ids=["ragged", "one-dimensional", "negative", "fractional", "boolean"])
def test_distribution_rejects_malformed_outcomes(outcomes):
    with pytest.raises(ValueError):
        Distribution(outcomes=outcomes, weights=np.array([0.5, 0.5]))


def test_distribution_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        Distribution(outcomes=((0,),), weights=np.array([0.5, 0.5]))


def test_distribution_rejects_negative_weights():
    with pytest.raises(ValueError):
        Distribution(outcomes=((0,), (1,)), weights=np.array([-1e-6, 1.0 + 1e-6]))


def test_distribution_accepts_tiny_negative_roundoff():
    d = Distribution(outcomes=((0,), (1,)), weights=np.array([-1e-13, 1.0 + 1e-13]))
    assert d.weights[0] == pytest.approx(0.0, abs=1e-12)


def test_distribution_rejects_unnormalized():
    with pytest.raises(ValueError):
        Distribution(outcomes=((0,), (1,)), weights=np.array([0.3, 0.3]))


def test_distribution_rejects_duplicate_outcomes():
    with pytest.raises(ValueError):
        Distribution(outcomes=((0,), (0,)), weights=np.array([0.5, 0.5]))


def test_subnormal_distribution_tracks_truncation():
    d = Distribution(
        outcomes=((0,), (1,)),
        weights=np.array([0.5, 0.4]),
        truncation_error=0.1,
    )
    assert d.truncation_error == pytest.approx(0.1)


def test_subnormal_distribution_rejects_understated_truncation():
    with pytest.raises(ValueError):
        Distribution(
            outcomes=((0,), (1,)),
            weights=np.array([0.5, 0.4]),
            truncation_error=0.01,
        )


def test_total_variation_hand_values():
    p = Distribution(outcomes=((0,), (1,)), weights=np.array([0.6, 0.4]))
    q = Distribution(outcomes=((0,), (1,)), weights=np.array([0.4, 0.6]))
    assert total_variation(p, q) == pytest.approx(0.2)
    assert total_variation(p, p) == pytest.approx(0.0)


def test_total_variation_disjoint_supports():
    p = Distribution(outcomes=((0,),), weights=np.array([1.0]))
    q = Distribution(outcomes=((1,),), weights=np.array([1.0]))
    assert total_variation(p, q) == pytest.approx(1.0)


def test_total_variation_rejects_different_widths():
    p = Distribution(outcomes=((0, 1),), weights=np.array([1.0]))
    q = Distribution(outcomes=((0, 1, 0),), weights=np.array([1.0]))
    with pytest.raises(ValueError):
        total_variation(p, q)


def test_row_groups_matches_unique():
    rows = make_stream(3).integers(0, 3, size=(200, 4))
    patterns, which = numerics.row_groups(rows)
    ref, inverse = np.unique(rows, axis=0, return_inverse=True)
    assert np.array_equal(patterns, ref)
    assert np.array_equal(which, inverse.ravel())
    assert np.array_equal(patterns[which], rows)


@pytest.mark.parametrize("size", [0, 1, 500])
def test_row_groups_of_a_broadcast_row_is_one_group_without_a_sort(size, monkeypatch):
    """A fixed input pattern reaches the samplers as a stride-0 view of one row."""
    row = np.array([1, 0, 1, 1, 0])

    def refuse(*args, **kwargs):
        raise AssertionError("row_groups sorted a broadcast row")

    monkeypatch.setattr(np, "lexsort", refuse)
    patterns, which = numerics.row_groups(np.broadcast_to(row, (size, 5)))
    assert patterns.shape == ((1, 5) if size else (0, 5)) and which.shape == (size,)
    assert np.array_equal(patterns[which], np.broadcast_to(row, (size, 5)))
    if size:
        assert patterns.flags.writeable and not which.any()


def test_total_variation_over_union_of_supports():
    p = Distribution(outcomes=((0,), (1,)), weights=np.array([0.5, 0.5]))
    q = Distribution(outcomes=((1,), (2,)), weights=np.array([0.5, 0.5]))
    # |0.5-0| + |0.5-0.5| + |0-0.5| halves to 0.5
    assert total_variation(p, q) == pytest.approx(0.5)
