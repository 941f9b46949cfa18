"""Tests for the brute-force reference distributions."""

import math
from itertools import product

import numpy as np
import pytest

from lossyboson import oracle
from lossyboson.errors import CapacityError, ModelViolationError
from lossyboson.numerics import haar_unitary
from lossyboson.oracle import (
    enumerate_patterns,
    fock_output_distribution,
    lossy_exact_distribution,
    thermal_exact_distribution,
)
from lossyboson.rng import make_stream
from lossyboson.thermal import gauss_hermite_constellation
from paper_stages import chi2_constellation, constellation_hermite_moments

BS5050 = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# pattern enumeration
# ---------------------------------------------------------------------------


def test_enumerate_patterns_two_photons_two_modes():
    assert enumerate_patterns(2, 2).tolist() == [[0, 2], [1, 1], [2, 0]]


def test_enumerate_patterns_is_lexicographic_and_complete():
    pats = enumerate_patterns(3, 3).tolist()
    assert pats == sorted(pats)
    assert len(pats) == math.comb(3 + 3 - 1, 3 - 1)
    assert all(sum(p) == 3 for p in pats)


def test_enumerate_patterns_zero_photons():
    assert enumerate_patterns(0, 3).tolist() == [[0, 0, 0]]


# ---------------------------------------------------------------------------
# lossless interference law
# ---------------------------------------------------------------------------


def test_single_photon_law_is_column_intensity():
    rng = make_stream(90)
    u = haar_unitary(5, rng)
    for j in range(5):
        pattern = tuple(1 if i == j else 0 for i in range(5))
        dist = fock_output_distribution(u, pattern)
        law = dist.as_dict()
        for i in range(5):
            outcome = tuple(1 if k == i else 0 for k in range(5))
            assert law[outcome] == pytest.approx(abs(u[i, j]) ** 2, abs=1e-12)


def test_two_photon_bunching_on_balanced_coupler():
    dist = fock_output_distribution(BS5050, (1, 1)).as_dict()
    assert dist[(1, 1)] == pytest.approx(0.0, abs=1e-14)
    assert dist[(2, 0)] == pytest.approx(0.5, abs=1e-14)
    assert dist[(0, 2)] == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("photons,modes", [(1, 3), (2, 4), (3, 4), (4, 5)])
def test_output_law_is_normalized(photons, modes):
    rng = make_stream(91 + photons)
    u = haar_unitary(modes, rng)
    pattern = (1,) * photons + (0,) * (modes - photons)
    dist = fock_output_distribution(u, pattern)
    assert dist.weights.sum() == pytest.approx(1.0, abs=1e-10)


def test_multiply_occupied_inputs_are_supported():
    rng = make_stream(95)
    u = haar_unitary(3, rng)
    dist = fock_output_distribution(u, (2, 0, 0))
    assert dist.weights.sum() == pytest.approx(1.0, abs=1e-10)


def test_output_law_covariant_under_output_relabeling():
    """Permuting the rows of u permutes the outcome labels the same way."""
    rng = make_stream(96)
    u = haar_unitary(4, rng)
    perm = np.array([2, 0, 3, 1])
    base = fock_output_distribution(u, (1, 1, 0, 0)).as_dict()
    shuffled = fock_output_distribution(u[perm], (1, 1, 0, 0)).as_dict()
    for outcome, p in base.items():
        # output i of u[perm] is output perm[i] of u
        assert shuffled[tuple(np.array(outcome)[perm])] == pytest.approx(p, abs=1e-12)


def test_rejects_nonunitary_matrix():
    with pytest.raises(ModelViolationError):
        fock_output_distribution(np.eye(2) * 0.5, (1, 0))


def test_rejects_oversized_problems():
    with pytest.raises(CapacityError):
        fock_output_distribution(np.eye(9), (1,) * 9)
    with pytest.raises(CapacityError):
        fock_output_distribution(np.eye(8), (2,) * 8)


# ---------------------------------------------------------------------------
# lossy mixtures
# ---------------------------------------------------------------------------


def test_lossy_identity_single_photon():
    dist = lossy_exact_distribution(np.eye(2), 0.3, (1, 0)).as_dict()
    assert dist[(0, 0)] == pytest.approx(0.7)
    assert dist[(1, 0)] == pytest.approx(0.3)


def test_lossy_identity_two_photons_factorizes():
    mu = 0.4
    dist = lossy_exact_distribution(np.eye(2), mu, (1, 1)).as_dict()
    assert dist[(0, 0)] == pytest.approx((1 - mu) ** 2)
    assert dist[(1, 0)] == pytest.approx(mu * (1 - mu))
    assert dist[(0, 1)] == pytest.approx(mu * (1 - mu))
    assert dist[(1, 1)] == pytest.approx(mu * mu)


def test_lossy_law_is_normalized_on_random_unitary():
    rng = make_stream(97)
    u = haar_unitary(4, rng)
    dist = lossy_exact_distribution(u, 0.55, (1, 1, 1, 0))
    assert dist.weights.sum() == pytest.approx(1.0, abs=1e-10)


def test_lossy_law_interpolates_to_lossless():
    rng = make_stream(98)
    u = haar_unitary(3, rng)
    full = lossy_exact_distribution(u, 1.0, (1, 1, 0)).as_dict()
    ref = fock_output_distribution(u, (1, 1, 0)).as_dict()
    for outcome, p in ref.items():
        assert full.get(outcome, 0.0) == pytest.approx(p, abs=1e-12)


def test_lossy_law_places_photons_on_input_modes():
    u = haar_unitary(4, make_stream(99))
    placed = lossy_exact_distribution(u, 0.6, (0, 1, 0, 1))
    leading = lossy_exact_distribution(u[:, [1, 3, 0, 2]], 0.6, (1, 1, 0, 0))
    assert np.array_equal(placed.outcomes, leading.outcomes)
    assert np.allclose(placed.weights, leading.weights, atol=1e-12)


def test_lossy_law_keeps_input_norm_for_duplicate_input_modes():
    """Two photons in one mode: the doubly occupied input carries its 1/2! norm."""
    dist = lossy_exact_distribution(np.eye(3), 0.5, (0, 2, 0))
    expected = {(0, 0, 0): 0.25, (0, 1, 0): 0.5, (0, 2, 0): 0.25}
    for outcome, p in dist.as_dict().items():
        assert p == pytest.approx(expected.get(outcome, 0.0), abs=1e-15)


@pytest.mark.parametrize("pattern", [(1, 1, 0, 1), (2, 0, 1, 0), (0, 3, 0, 2), (0, 0, 0, 0)],
                         ids=["single", "doubled", "more-photons-than-modes", "vacuum"])
def test_lossless_law_with_repeated_input_modes_is_the_fock_law_bit_for_bit(pattern):
    """At mu = 1 only the all-survivor term is left, so the mixture gives the
    single-input permanent law's outcomes and weights exactly."""
    u = haar_unitary(4, make_stream(100))
    dist = lossy_exact_distribution(u, 1.0, pattern)
    table = oracle._outcome_table(sum(pattern), 4)
    inputs = np.repeat(np.arange(4), pattern)[None, :]
    assert np.array_equal(dist.outcomes, table[0])
    assert dist.weights.tobytes() == oracle._summed_weights(u, table, inputs).tobytes()
    assert fock_output_distribution(u, pattern).weights.tobytes() == dist.weights.tobytes()


@pytest.mark.parametrize("gather", [oracle.GATHER_ENTRIES, 1], ids=["default", "one-input"])
def test_lossy_law_is_the_mixture_over_survival_patterns(monkeypatch, gather):
    """Equals the explicit sum over survival bitmasks of mu^k (1-mu)^(n-k) times
    the lossless law of the surviving photons; gather 1 puts every input in
    its own permanent stack."""
    monkeypatch.setattr(oracle, "GATHER_ENTRIES", gather)
    u = haar_unitary(8, make_stream(111))
    mu, input_modes = 0.7, (0, 2, 3, 5, 6, 7)
    n = len(input_modes)
    reference: dict = {}
    for bits in product((0, 1), repeat=n):
        k = sum(bits)
        pattern = np.bincount([m for m, b in zip(input_modes, bits) if b], minlength=8)
        for outcome, p in fock_output_distribution(u, pattern).as_dict().items():
            reference[outcome] = reference.get(outcome, 0.0) + mu**k * (1 - mu) ** (n - k) * p
    dist = lossy_exact_distribution(u, mu, np.bincount(input_modes, minlength=8))
    outcomes = list(map(tuple, dist.outcomes.tolist()))
    assert outcomes == sorted(reference)
    assert np.abs(dist.weights - [reference[o] for o in outcomes]).max() < 1e-13


@pytest.mark.parametrize("input_modes", [(), (1, 1, 0), (1, 1, 0, 0, 0), (1, -1, 1, 0)])
def test_lossy_law_rejects_bad_input_modes(input_modes):
    """The input is a count per mode: a pattern of the wrong length or with a
    negative count is rejected."""
    with pytest.raises(ValueError, match="pattern covers|non-negative"):
        lossy_exact_distribution(np.eye(4), 0.5, input_modes)


# ---------------------------------------------------------------------------
# thermal mixtures
# ---------------------------------------------------------------------------


def test_thermal_identity_single_mode_is_geometric():
    lam, cutoff = 0.25, 6
    dist = thermal_exact_distribution(np.eye(1), lam, 1, cutoff)
    law = dist.as_dict()
    for k in range(cutoff + 1):
        assert law[(k,)] == pytest.approx((1 - lam) * lam**k, abs=1e-12)
    assert dist.truncation_error == pytest.approx(lam ** (cutoff + 1), abs=1e-12)


def test_thermal_truncation_mass_accounts_for_tail():
    rng = make_stream(99)
    u = haar_unitary(3, rng)
    dist = thermal_exact_distribution(u, 0.3, 2, 5)
    assert dist.weights.sum() + dist.truncation_error == pytest.approx(1.0, abs=1e-10)


def test_thermal_zero_temperature_is_vacuum():
    dist = thermal_exact_distribution(np.eye(2), 0.0, 2, 4)
    assert dist.as_dict()[(0, 0)] == pytest.approx(1.0)
    assert dist.truncation_error == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# Hermite moments and chi-square divergence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_hermite_moments_vanish_below_twice_the_order(m):
    moments = constellation_hermite_moments(gauss_hermite_constellation(m), 2 * m)
    assert moments[0] == pytest.approx(1.0, abs=1e-14)
    assert np.abs(moments[1 : 2 * m]).max() < 1e-9
    # degree 2m is the first place quadrature exactness runs out
    assert abs(moments[2 * m]) > 1e-6


def test_chi2_nonnegative_and_decreasing_in_order():
    lam = 0.4
    values = [chi2_constellation(m, lam) for m in (2, 3, 4, 5)]
    assert all(v >= -1e-15 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("lam", [0.1, 0.3, 0.5])
def test_chi2_within_analytic_budget(m, lam):
    assert chi2_constellation(m, lam) <= 2.36 * lam**m / (1.0 - lam)


def test_chi2_budget_shape_matches_divergence():
    """The budget tracks the true divergence up to a modest constant.

    The measured chi-square peaks near 0.28 * lam^m/(1-lam) at m=2,
    lam=0.63, so the 2.36 prefactor bounds it with real but bounded slack:
    a mutated budget using a much smaller constant (0.2) is violated there,
    while the actual constant holds everywhere on the grid above.
    """
    lam = 0.63
    chi2 = chi2_constellation(2, lam)
    assert chi2 <= 2.36 * lam**2 / (1.0 - lam)
    assert chi2 > 0.2 * lam**2 / (1.0 - lam)
