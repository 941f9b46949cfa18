"""Tests for the thermal-replacement sampling pipeline."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as scipy_stats

from lossyboson import thermal
from lossyboson.errors import CapacityError
from lossyboson.numerics import haar_unitary
from lossyboson.rng import make_stream
from lossyboson.thermal import (
    ThermalParams,
    gauss_hermite_constellation,
    propagate,
    sample_output,
    sample_poisson_bernoulli,
    sample_thermal_coherent,
    scattershot_herald,
)
from paper_stages import bernoulli_trials_count, constellation_size, thermal_vs_erasure_distance


# ---------------------------------------------------------------------------
# quadrature constellations
# ---------------------------------------------------------------------------


def test_constellation_order_one():
    c = gauss_hermite_constellation(1)
    assert np.allclose(c.points, [0.0])
    assert np.allclose(c.weights, [1.0])


def test_constellation_order_two_closed_form():
    c = gauss_hermite_constellation(2)
    assert np.allclose(c.points, [-1.0, 1.0], atol=1e-12)
    assert np.allclose(c.weights, [0.5, 0.5], atol=1e-12)


def test_constellation_order_three_closed_form():
    c = gauss_hermite_constellation(3)
    root3 = math.sqrt(3.0)
    assert np.allclose(c.points, [-root3, 0.0, root3], atol=1e-12)
    assert np.allclose(c.weights, [1 / 6, 2 / 3, 1 / 6], atol=1e-12)


@pytest.mark.parametrize("m", [2, 4, 7, 12])
def test_constellation_integrates_gaussian_moments_exactly(m):
    """Order-m nodes reproduce standard-normal moments up to degree 2m-1."""
    c = gauss_hermite_constellation(m)
    for k in range(2 * m):
        quad = float(np.sum(c.weights * c.points**k))
        exact = 0.0 if k % 2 else scipy_stats.norm.moment(k)
        # odd moments cancel in pairs; allow roundoff at the scale of the
        # unsigned integrand mass
        slack = 1e-13 * float(np.sum(c.weights * np.abs(c.points) ** k)) + 1e-12
        assert quad == pytest.approx(exact, rel=1e-11, abs=slack)


def test_constellation_is_symmetric():
    c = gauss_hermite_constellation(9)
    assert np.allclose(c.points, -c.points[::-1], atol=1e-14)
    assert np.allclose(c.weights, c.weights[::-1], atol=1e-14)
    assert np.sum(c.weights) == pytest.approx(1.0, abs=1e-14)


def test_constellation_rejects_bad_orders():
    with pytest.raises(ValueError):
        gauss_hermite_constellation(0)
    with pytest.raises(CapacityError):
        gauss_hermite_constellation(65)


def test_constellation_size_reference_value():
    assert constellation_size(10, 0.01, 0.1) == 5


def test_constellation_size_edge_cases():
    assert constellation_size(10, 0.01, 0.0) == 1
    with pytest.raises(ValueError):
        constellation_size(10, 0.01, 1.0)
    # weaker loss (larger mu) needs a larger constellation
    assert constellation_size(10, 0.01, 0.5) >= constellation_size(10, 0.01, 0.1)


def test_bernoulli_trials_count_reference_value():
    assert bernoulli_trials_count(4, 2, 0.01, 5) == 240000


def test_bernoulli_trials_count_scales_with_budget():
    assert bernoulli_trials_count(4, 2, 0.001, 5) == 10 * bernoulli_trials_count(
        4, 2, 0.01, 5
    )


# ---------------------------------------------------------------------------
# thermal states and coherent sampling
# ---------------------------------------------------------------------------


def test_thermal_params_moments():
    p = ThermalParams(0.2)
    assert p.variance == pytest.approx(0.25)


def test_thermal_params_validation():
    with pytest.raises(ValueError):
        ThermalParams(1.0)
    with pytest.raises(ValueError):
        ThermalParams(-0.1)


def test_coherent_samples_match_thermal_moments():
    """E[alpha] = 0 and E[|alpha|^2] = lam/(1-lam) for the discretized state."""
    lam = 0.3
    params = ThermalParams(lam)
    const = gauss_hermite_constellation(8)
    rng = make_stream(17)
    draws = np.array(
        [sample_thermal_coherent(const, params, 3, rng) for _ in range(4000)]
    )
    assert np.abs(draws.mean(axis=0)).max() < 0.05
    assert np.allclose(
        (np.abs(draws) ** 2).mean(axis=0), lam / (1 - lam), atol=0.05
    )


def test_coherent_samples_deterministic_under_seed():
    params = ThermalParams(0.2)
    const = gauss_hermite_constellation(6)
    a = sample_thermal_coherent(const, params, 4, make_stream(3))
    b = sample_thermal_coherent(const, params, 4, make_stream(3))
    assert np.array_equal(a, b)


def test_propagate_applies_transfer():
    a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    alpha = np.array([1.0 + 0j, 2.0 + 0j])
    assert np.allclose(propagate(a, alpha), [2.0, 1.0])


def test_propagate_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        propagate(np.eye(2, dtype=complex), np.zeros(3, dtype=complex))


# ---------------------------------------------------------------------------
# Poissonian counting via Bernoulli trials
# ---------------------------------------------------------------------------


def test_bernoulli_counts_match_poisson_mean():
    rng = make_stream(23)
    x = 1.7  # intensity |beta|^2
    beta = math.sqrt(x) * np.exp(0.4j)
    draws = np.array([sample_poisson_bernoulli(beta, 4000, rng) for _ in range(4000)])
    assert draws.mean() == pytest.approx(x, abs=0.1)
    assert draws.var() == pytest.approx(x, abs=0.15)


def test_bernoulli_counts_reject_overloaded_trials():
    # |beta|^2 = 16 exceeds t = 10 trials
    with pytest.raises(ValueError):
        sample_poisson_bernoulli(4.0, 10, make_stream(0))


@pytest.mark.parametrize("x,t", [(1.0, 10), (0.5, 20), (2.0, 50)])
def test_binomial_poisson_exact_tvd_bound(x, t):
    """TVD(Binomial(t, x/t), Poisson(x)) <= (1 - e^-x) * x / t, computed exactly."""
    ks = np.arange(t + 1)
    binom = scipy_stats.binom.pmf(ks, t, x / t)
    poisson = scipy_stats.poisson.pmf(ks, x)
    tvd = 0.5 * np.abs(binom - poisson).sum() + 0.5 * scipy_stats.poisson.sf(t, x)
    assert tvd <= (1.0 - math.exp(-x)) * x / t


# ---------------------------------------------------------------------------
# end-to-end sampling
# ---------------------------------------------------------------------------


def test_single_mode_output_follows_thermal_law():
    """One thermal mode through the identity gives geometric photon counts."""
    lam = 0.25
    params = ThermalParams(lam)
    a = np.eye(1, dtype=complex)
    rng = make_stream(31)
    trials = 20000
    hist = {}
    for n in sample_output(a, params, np.ones((trials, 1), dtype=int), rng)[:, 0]:
        hist[int(n)] = hist.get(int(n), 0) + 1
    law = {k: (1 - lam) * lam**k for k in range(20)}
    tvd = 0.5 * sum(
        abs(hist.get(k, 0) / trials - p) for k, p in law.items()
    ) + 0.5 * (1.0 - sum(law.values()))
    # the draw is exact, so the distance here is sampling noise alone
    assert tvd < 0.05


def test_sample_output_places_inputs_where_asked():
    """Photons only enter each row's own input modes; a diagonal transfer keeps them there."""
    params = ThermalParams(0.4)
    a = np.eye(4, dtype=complex)
    rng = make_stream(37)
    counts = sample_output(a, params, np.broadcast_to([0, 0, 1, 0], (200, 4)), rng)
    assert (counts[:, [0, 1, 3]] == 0).all()
    inputs = make_stream(38).integers(0, 2, size=(400, 4))
    counts = sample_output(a, params, inputs, rng)
    assert (counts[inputs == 0] == 0).all() and counts[inputs == 1].sum() > 0


@pytest.mark.parametrize("inputs", [np.ones(4), np.ones((3, 5)), np.full((3, 4), 2),
                                    [[1, -1, 1, 0]], [[0.5, 0.5, 0.0, 0.0]]])
def test_sample_output_rejects_bad_inputs(inputs):
    with pytest.raises(ValueError, match="0/1 array"):
        sample_output(np.eye(4), ThermalParams(0.4), inputs, make_stream(1))


def test_sample_output_rows_do_not_depend_on_block_size(monkeypatch):
    a = haar_unitary(5, make_stream(39))
    inputs = make_stream(40).integers(0, 2, size=(300, 5))
    rows = {}
    for block in (7, 300):
        monkeypatch.setattr(thermal, "DRAW_BLOCK", block)
        rows[block] = sample_output(a, ThermalParams(0.3), inputs, make_stream(41))
    assert rows[7].shape == (300, 5) and np.array_equal(rows[7], rows[300])


def _dense_sample_output(a, params, inputs, rng):
    """sample_output before occupied columns: every block propagates all M columns of a."""
    a = np.asarray(a, dtype=complex)
    rows, modes = np.nonzero(inputs)
    amplitudes = rng.standard_normal(2 * len(rows)).view(complex)
    amplitudes *= math.sqrt(params.variance / 2.0)
    ends = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(inputs)))))
    out = np.empty(inputs.shape, dtype=np.int64)
    for start in range(0, len(inputs), thermal.DRAW_BLOCK):
        stop = min(start + thermal.DRAW_BLOCK, len(inputs))
        block = slice(ends[start], ends[stop])
        alpha = np.zeros((stop - start, a.shape[1]), dtype=complex)
        alpha[rows[block] - start, modes[block]] = amplitudes[block]
        beta = propagate(a, alpha.T).T
        out[start:stop] = rng.poisson(np.abs(beta) ** 2)
    return out


@pytest.mark.parametrize("block", [1, 7, 32, 210])
def test_sample_output_matches_dense_reference(block, monkeypatch):
    """Propagating only a block's occupied columns keeps every count of the dense draw."""
    a = 0.95 * haar_unitary(12, make_stream(42))
    inputs = make_stream(43).binomial(1, 0.25, size=(210, 12))  # heralded rows
    inputs[[3, 50]] = 0
    inputs[42:49] = 0  # a whole 7-row block with no input
    inputs[[4, 100, 101]] = 1  # rows that cover every mode
    monkeypatch.setattr(thermal, "DRAW_BLOCK", block)
    params = ThermalParams(0.6)
    counts = sample_output(a, params, inputs, make_stream(44))
    assert counts.sum() > 200 and (counts[inputs.sum(axis=1) == 0] == 0).all()
    assert np.array_equal(counts, _dense_sample_output(a, params, inputs, make_stream(44)))


def test_sample_output_on_occupied_columns_is_bit_identical():
    """Heralded rows through the columns any row occupies give the full draw's counts."""
    a = 0.9 * haar_unitary(10, make_stream(45))
    inputs = make_stream(46).binomial(1, 0.3, size=(150, 10))
    inputs[:, [2, 7]] = 0  # columns no row occupies
    cols = np.flatnonzero(inputs.any(axis=0))
    assert len(cols) == 8
    params = ThermalParams(0.5)
    full = sample_output(a, params, inputs, make_stream(47))
    block = sample_output(a[:, cols], params, inputs[:, cols], make_stream(47))
    assert block.shape == (150, 10) and full.sum() > 150
    assert np.array_equal(block, full)


def test_sample_output_checks_the_column_block_against_inputs():
    a = np.eye(5, dtype=complex)[:, [0, 3]]
    with pytest.raises(ValueError, match=r"\(rows, K\) 0/1 array for A \(5, 2\)"):
        sample_output(a, ThermalParams(0.4), np.ones((4, 5), dtype=int), make_stream(1))
    counts = sample_output(a, ThermalParams(0.4), np.ones((400, 2), dtype=int), make_stream(1))
    assert counts.shape == (400, 5) and counts[:, [1, 2, 4]].sum() == 0 < counts.sum()


def _ragged_inputs() -> np.ndarray:
    """Heralded (100, 9) int rows with all-zero rows on both sides of the 32- and
    64-row block edges and at the end."""
    inputs = make_stream(48).binomial(1, 0.3, size=(100, 9))
    inputs[[29, 30, 31, 32, 33, 63, 64, 97, 98, 99]] = 0
    return inputs


# sha256 of the int64 counts drawn from _ragged_inputs() at seed 50, recorded when
# sample_output still listed the occupied entries once for the whole draw
RAGGED_SHA256 = "f77c32bcbd26b8615dee002e4f35837fb629b681ac5d7602d17c9d82ae2b5da7"


def test_sample_output_bool_inputs_give_the_pinned_int_bytes():
    a = 0.9 * haar_unitary(9, make_stream(49))
    inputs = _ragged_inputs()
    assert thermal.DRAW_BLOCK == 32
    counts = sample_output(a, ThermalParams(0.5), inputs, make_stream(50))
    assert hashlib.sha256(counts.tobytes()).hexdigest() == RAGGED_SHA256
    flags = sample_output(a, ThermalParams(0.5), inputs.astype(bool), make_stream(50))
    assert flags.dtype == np.int64 and np.array_equal(flags, counts)
    assert (counts[inputs.sum(axis=1) == 0] == 0).all()


def test_fixed_pattern_draw_peaks_under_one_and_a_half_times_its_output():
    """A fixed pattern's counts plus its amplitudes and per-row block bounds: no
    whole-draw index arrays of the occupied entries."""
    a = 0.9 * haar_unitary(60, make_stream(51))[:, :10]
    inputs = np.broadcast_to(np.ones(10, dtype=int), (20000, 10))
    tracemalloc.start()
    try:
        counts = sample_output(a, ThermalParams(0.3), inputs, make_stream(52))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.shape == (20000, 60)
    assert peak <= 1.5 * counts.nbytes, peak / counts.nbytes


def test_sample_output_vacuum_block_gives_zero_rows():
    rng = make_stream(48)
    counts = sample_output(np.zeros((6, 0)), ThermalParams(0.4), np.ones((5, 0), dtype=int), rng)
    assert counts.shape == (5, 6) and not counts.any()
    assert rng.random() == make_stream(48).random()  # no random numbers taken


def test_sample_output_means_near_unit_transmission():
    """At lam = 0.99 the per-mode means are sum_j |a_ij|^2 * lam / (1 - lam).

    Output mode i sees |beta_i|^2 exponential with mean s_i, so its count is
    geometric with variance s_i + s_i^2; each mean must lie within 5 sigma.
    """
    lam, rows = 0.99, 4000
    rng = make_stream(41)
    a = haar_unitary(3, rng)
    params = ThermalParams(lam)
    counts = sample_output(a, params, np.broadcast_to([1, 1, 0], (rows, 3)), rng)
    s = (np.abs(a[:, :2]) ** 2).sum(axis=1) * lam / (1.0 - lam)
    sigma = np.sqrt((s + s * s) / rows)
    assert np.all(np.abs(counts.mean(axis=0) - s) <= 5.0 * sigma)


def test_sample_output_deterministic_under_seed():
    params = ThermalParams(0.3)
    rng1, rng2 = make_stream(5), make_stream(5)
    a = np.eye(3, dtype=complex)
    inputs = np.broadcast_to([1, 1, 0], (20, 3))
    assert np.array_equal(sample_output(a, params, inputs, rng1),
                          sample_output(a, params, inputs, rng2))


# ---------------------------------------------------------------------------
# distance identity and heralding
# ---------------------------------------------------------------------------


def test_distance_at_matched_rate_is_mu_squared():
    for mu in np.linspace(0.01, 0.3, 30):
        assert thermal_vs_erasure_distance(float(mu), float(mu)) == pytest.approx(
            mu * mu, abs=1e-14
        )


def test_distance_hand_value_off_diagonal():
    # 0.5 * (lam^2 + |mu - lam| + |lam(1-lam) - mu|)
    lam, mu = 0.1, 0.2
    expected = 0.5 * (0.01 + 0.1 + abs(0.09 - 0.2))
    assert thermal_vs_erasure_distance(lam, mu) == pytest.approx(expected)


def test_scattershot_herald_follows_collision_free_law():
    """Collision-free heralds: i.i.d. Bernoulli(lam/(1+lam)) entries, so P(h) is
    proportional to lam**|h|."""
    lam, size = 0.3, 20000
    p = lam / (1 + lam)
    draws = scattershot_herald(8, lam, make_stream(41), 3000)
    assert draws.shape == (3000, 8) and set(np.unique(draws).tolist()) == {0, 1}
    assert np.abs(draws.mean(axis=0) - p).max() <= 3 * math.sqrt(p * (1 - p) / 3000)
    rows = scattershot_herald(3, lam, make_stream(42), size)
    heralds = list(itertools.product((0, 1), repeat=3))
    norm = sum(lam ** sum(h) for h in heralds)
    for h in heralds:
        q = lam ** sum(h) / norm
        assert abs(np.mean((rows == h).all(axis=1)) - q) <= 3 * math.sqrt(q * (1 - q) / size)
