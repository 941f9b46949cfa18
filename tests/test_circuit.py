"""Tests for circuit construction, transmissions, and thresholds."""

import json
import math

import numpy as np
import pytest

from lossyboson.circuit import (
    CouplerGate,
    Layer,
    LayeredCircuit,
    circuit_from_json,
    circuit_to_json,
    coupler_blocks,
    decompose_losses,
    depth_threshold_algebraic,
    depth_threshold_exponential,
    plan,
    random_brickwork,
    thermalization_depth,
    transfer_matrix,
)
from lossyboson.errors import ModelViolationError
from lossyboson.rng import make_stream
from scipy import stats

from reference import haar_unitary

FIELDS = ("offsets", "gate_mode", "theta", "phi", "tau", "phases", "idle_tau")


def _single_coupler_circuit(theta, phi=0.0, tau=1.0, phases=(0.0, 0.0)):
    layer = Layer(couplers=(CouplerGate(0, theta, phi, tau),), phases=phases)
    return LayeredCircuit.from_layers(2, (layer,))


def _one_layer(modes, couplers, phases=None, idle_tau=1.0):
    phases = (0.0,) * modes if phases is None else phases
    return LayeredCircuit.from_layers(modes, (Layer(couplers, phases, idle_tau),))


def _bits(x):
    """The bytes of an array as int64 words, so equality is bit equality (-0.0 != 0.0)."""
    return np.ascontiguousarray(x).view(np.int64)


def _assert_same_bits(a, b):
    assert a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


def _assert_same_circuit(c1, c2):
    assert c1.modes == c2.modes
    for name in FIELDS:
        _assert_same_bits(getattr(c1, name), getattr(c2, name))


# ---------------------------------------------------------------------------
# gates and layers
# ---------------------------------------------------------------------------


def test_coupler_block_at_zero_angle_is_identity():
    assert np.allclose(coupler_blocks([0.0], [0.0])[0], np.eye(2))


def test_coupler_block_is_unitary():
    block = coupler_blocks([0.7], [1.3])[0]
    assert np.allclose(block @ block.conj().T, np.eye(2), atol=1e-14)


def test_coupler_block_structure():
    theta, phi = 0.4, 0.9
    c, s = math.cos(theta), math.sin(theta)
    e = np.exp(1j * phi)
    expected = np.array([[c, e * s], [-np.conj(e) * s, c]])
    blocks = coupler_blocks([0.0, theta], [0.5, phi])
    assert blocks.shape == (2, 2, 2)
    assert np.allclose(blocks[1], expected)


def test_coupler_rejects_gain():
    with pytest.raises(ModelViolationError):
        _one_layer(2, (CouplerGate(0, 0.1, tau=1.0 + 1e-6),))


def test_coupler_rejects_negative_transmission():
    with pytest.raises(ValueError, match="gate transmission"):
        _one_layer(2, (CouplerGate(0, 0.1, tau=-0.1),))


def test_layer_rejects_overlapping_couplers():
    with pytest.raises(ValueError, match="overlapping couplers in layer 0 at mode 1"):
        _one_layer(3, (CouplerGate(0, 0.1), CouplerGate(1, 0.2)))


def test_layer_rejects_idle_gain():
    with pytest.raises(ModelViolationError):
        _one_layer(1, (), idle_tau=1.1)


@pytest.mark.parametrize("couplers", [
    (CouplerGate(2, 0.1), CouplerGate(0, 0.2), CouplerGate(1, 0.3)),  # listed out of order
    (CouplerGate(1, 0.1), CouplerGate(1, 0.2)),  # the same pair twice
])
def test_overlap_check_ignores_listing_order(couplers):
    with pytest.raises(ValueError, match="overlapping"):
        _one_layer(5, couplers)


def test_disjoint_couplers_pass_in_any_order():
    """Layer 0 lists its pairs backwards and ends on the last pair; layer 1 starts on the first."""
    layers = (Layer((CouplerGate(2, 0.1), CouplerGate(0, 0.3)), (0.0,) * 4),
              Layer((CouplerGate(0, 0.2),), (0.0,) * 4))
    c = LayeredCircuit.from_layers(4, layers)
    assert c.offsets.tolist() == [0, 2, 3] and c.gate_mode.tolist() == [2, 0, 0]
    assert c.theta.tolist() == [0.1, 0.3, 0.2]


@pytest.mark.parametrize("mode", [-1, 3])
def test_coupler_outside_the_modes_is_rejected(mode):
    with pytest.raises(ValueError, match=f"coupler at mode {mode} does not fit"):
        _one_layer(4, (CouplerGate(mode, 0.1),))


@pytest.mark.parametrize("field,layer", [
    ("theta", Layer((CouplerGate(0, math.nan),), (0.0, 0.0))),
    ("phi", Layer((CouplerGate(0, 0.1, -math.inf),), (0.0, 0.0))),
    ("tau", Layer((CouplerGate(0, 0.1, 0.0, math.nan),), (0.0, 0.0))),
    ("tau", Layer((CouplerGate(0, 0.1, 0.0, math.inf),), (0.0, 0.0))),
    ("phases", Layer((), (0.0, math.inf))),
    ("idle_tau", Layer((), (0.0, 0.0), math.nan)),
])
def test_non_finite_values_are_rejected_by_name(field, layer):
    with pytest.raises(ValueError, match=f"circuit {field}\\[") as info:
        LayeredCircuit.from_layers(2, (Layer((), (0.0, 0.0)), layer))
    assert not isinstance(info.value, ModelViolationError)


def test_phase_count_must_match_modes():
    with pytest.raises(ValueError, match="layer 0 has 2 phases for 3 modes"):
        _one_layer(3, (), phases=(0.0, 0.0))


def test_direct_arrays_are_checked_for_shape():
    with pytest.raises(ValueError, match="offsets"):
        LayeredCircuit(2, [1], [], [], [], [], [[0.0, 0.0]], [1.0])
    with pytest.raises(ValueError, match="theta has shape"):
        LayeredCircuit(2, [0, 1], [0], [0.1, 0.2], [0.0], [1.0], [[0.0, 0.0]], [1.0])
    with pytest.raises(ValueError, match="phases has shape"):
        LayeredCircuit(2, [0, 0], [], [], [], [], [0.0, 0.0], [1.0])


def test_circuit_arrays_are_read_only():
    c = random_brickwork(4, 2, 0.9, make_stream(3))
    for name in FIELDS:
        with pytest.raises(ValueError):
            getattr(c, name)[...] = 0


# ---------------------------------------------------------------------------
# transfer matrices
# ---------------------------------------------------------------------------


def test_empty_circuit_transfer_is_identity():
    c = LayeredCircuit.from_layers(3, ())
    assert c.depth == 0 and c.phases.shape == (0, 3)
    assert np.array_equal(transfer_matrix(c), np.eye(3))


def test_single_layer_applies_phases_after_coupler():
    theta, phi = 0.6, 0.2
    phases = (0.3, -0.8)
    c = _single_coupler_circuit(theta, phi, phases=phases)
    expected = np.diag(np.exp(1j * np.array(phases))) @ coupler_blocks([theta], [phi])[0]
    assert np.allclose(transfer_matrix(c), expected, atol=1e-14)


def test_layers_compose_in_temporal_order():
    """For layers listed first-to-last, the transfer is (last) @ ... @ (first)."""
    l1 = Layer(couplers=(CouplerGate(0, 0.3),), phases=(0.0, 0.0))
    l2 = Layer(couplers=(CouplerGate(0, 1.1, 0.4),), phases=(0.5, 0.0))
    c = LayeredCircuit.from_layers(2, (l1, l2))
    m1 = transfer_matrix(LayeredCircuit.from_layers(2, (l1,)))
    m2 = transfer_matrix(LayeredCircuit.from_layers(2, (l2,)))
    assert np.allclose(transfer_matrix(c), m2 @ m1, atol=1e-14)


def test_gate_loss_scales_block_by_sqrt_tau():
    tau = 0.64
    c = _single_coupler_circuit(0.5, tau=tau)
    lossless = _single_coupler_circuit(0.5, tau=1.0)
    assert np.allclose(
        transfer_matrix(c), math.sqrt(tau) * transfer_matrix(lossless), atol=1e-14
    )


def test_idle_modes_see_idle_transmission():
    a = transfer_matrix(_one_layer(3, (CouplerGate(0, 0.2),), idle_tau=0.49))
    assert a[2, 2] == pytest.approx(0.7)  # sqrt(0.49)
    assert np.allclose(a[2, :2], 0.0) and np.allclose(a[:2, 2], 0.0)


def test_lossless_transfer_is_unitary():
    rng = make_stream(5)
    c = random_brickwork(6, 4, 1.0, rng)
    a = transfer_matrix(c)
    assert np.allclose(a @ a.conj().T, np.eye(6), atol=1e-12)


def test_lossless_copy_strips_loss_only():
    rng = make_stream(6)
    c = random_brickwork(4, 3, 0.8, rng)
    lc = c.lossless_copy()
    assert lc.uniform_mu() == 1.0 and c.uniform_mu() == 0.8**3
    # same interference pattern: lossy transfer = tau^(D/2) * lossless transfer
    scale = 0.8 ** (3 / 2)
    assert np.allclose(transfer_matrix(c), scale * transfer_matrix(lc), atol=1e-12)


def test_uniform_mu_is_the_product_of_layer_transmissions():
    l1 = Layer(couplers=(CouplerGate(0, 0.3, tau=0.9),), phases=(0.0, 0.0), idle_tau=0.9)
    l2 = Layer(couplers=(CouplerGate(0, 0.3, tau=0.8),), phases=(0.0, 0.0), idle_tau=0.8)
    assert LayeredCircuit.from_layers(2, (l1, l2, l1)).uniform_mu() == 0.8 * 0.9**2
    # a layer with no idle mode needs only equal gates; its idle_tau is never used
    assert _one_layer(2, (CouplerGate(0, 0.3, tau=0.7),)).uniform_mu() == 0.7
    assert _one_layer(4, (CouplerGate(0, 0.3, tau=0.7), CouplerGate(2, 0.3, tau=0.7)),
                      idle_tau=0.2).uniform_mu() == 0.7
    assert _one_layer(4, (CouplerGate(0, 0.3, tau=0.7), CouplerGate(2, 0.3, tau=0.6)),
                      idle_tau=0.7).uniform_mu() is None
    # with an idle mode, every gate must equal the idle transmission
    assert _one_layer(3, (CouplerGate(0, 0.3, tau=0.7),), idle_tau=0.7).uniform_mu() == 0.7
    assert _one_layer(3, (CouplerGate(0, 0.3, tau=0.7),), idle_tau=0.8).uniform_mu() is None
    one_mode = [Layer((), (0.0,), t) for t in (0.9, 0.5, 0.9)]
    assert LayeredCircuit.from_layers(1, one_mode).uniform_mu() == 0.5 * 0.9**2
    assert LayeredCircuit.from_layers(2, ()).uniform_mu() == 1.0
    for modes, depth, tau in [(8, 5, 0.9), (7, 12, 0.73), (1, 3, 0.8), (200, 200, 0.98262)]:
        assert random_brickwork(modes, depth, tau, make_stream(1)).uniform_mu() == tau**depth


def _dense_transfer(circuit):
    """Reference transfer matrix: one dense M x M layer matrix per layer, multiplied in order."""
    a = np.eye(circuit.modes, dtype=complex)
    for l in range(circuit.depth):
        mat = np.diag(np.full(circuit.modes, math.sqrt(circuit.idle_tau[l]), dtype=complex))
        for g in range(circuit.offsets[l], circuit.offsets[l + 1]):
            k, c, s = circuit.gate_mode[g], math.cos(circuit.theta[g]), math.sin(circuit.theta[g])
            e = np.exp(1j * circuit.phi[g])
            block = np.array([[c, e * s], [-np.conj(e) * s, c]])
            mat[k : k + 2, k : k + 2] = math.sqrt(circuit.tau[g]) * block
        a = (np.exp(1j * circuit.phases[l])[:, None] * mat) @ a
    return a


def _mixed_circuit(modes, depth, rng, blocking_layer=None):
    """Random couplers at irregular positions, mixed gate and idle loss, non-zero phases."""
    layers = []
    for l in range(depth):
        gates, k = [], int(rng.integers(0, 2))
        while k + 1 < modes:
            if rng.random() < 0.7:
                gates.append(CouplerGate(k, rng.uniform(0, 2 * math.pi), rng.uniform(-3, 3),
                                         rng.uniform(0.3, 1.0)))
                k += 2 + int(rng.integers(0, 2))
            else:
                k += 1
        idle_tau = rng.uniform(0.3, 1.0)
        if l == blocking_layer:
            gates = [CouplerGate(g.mode, g.theta, g.phi, 0.0) for g in gates]
            idle_tau = 0.0
        layers.append(Layer(tuple(gates), tuple(rng.uniform(-3, 3, modes)), idle_tau))
    return LayeredCircuit.from_layers(modes, tuple(layers))


@pytest.mark.parametrize("modes,depth,blocking", [(7, 12, None), (8, 9, None), (5, 6, 3), (1, 3, None)])
def test_transfer_matrix_matches_dense_layer_product(modes, depth, blocking):
    c = _mixed_circuit(modes, depth, make_stream(40 + modes), blocking_layer=blocking)
    assert len(set(c.idle_tau.tolist()) | set(c.tau.tolist())) > 2
    a, ref = transfer_matrix(c), _dense_transfer(c)
    assert np.abs(a - ref).max() <= 1e-13
    if blocking is not None:
        assert not ref.any() and not a.any()
    else:
        assert np.abs(ref).max() > 1e-3


# ---------------------------------------------------------------------------
# loss decomposition
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_brickwork_loss_is_uniform_tau_to_depth(depth):
    """Every mode of a brickwork with per-layer transmission tau sees tau**depth."""
    rng = make_stream(200 + depth)
    c = random_brickwork(6, depth, 0.9, rng)
    assert np.allclose(decompose_losses(transfer_matrix(c)), 0.9**depth, atol=1e-10)


def test_decompose_losses_clips_roundoff_overshoot():
    # a numerically-almost-unitary matrix may overshoot 1 by float error
    a = np.eye(3) * (1.0 + 1e-10)
    assert np.all(decompose_losses(a) <= 1.0)


def test_decompose_losses_rejects_amplification():
    with pytest.raises(ModelViolationError):
        decompose_losses(np.eye(2) * 1.01)


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def test_simulability_boundary_is_inclusive():
    assert plan(0.01, 100, 0.01, exact_backend=True).thermal_valid
    assert not plan(0.01 + 1e-9, 100, 0.01, exact_backend=True).thermal_valid


def test_simulability_matches_quadratic_budget():
    """mu <= sqrt(eps/N) is the same test as N*mu^2 <= eps."""
    n, eps = 100, 0.02
    for mu in np.linspace(0.01, 0.30, 30):
        assert plan(float(mu), n, eps, exact_backend=True).thermal_valid == (n * mu * mu <= eps)


@pytest.mark.parametrize("mu_max, photons, eps, message", [
    (-0.1, 2, 0.05, "transmission"), (1.1, 2, 0.05, "transmission"),
    (0.5, -1, 0.05, "photon number"), (0.5, 2, 0.0, "error budget"),
    (0.5, 2, -0.05, "error budget"),
])
def test_plan_rejects_out_of_range_arguments(mu_max, photons, eps, message):
    with pytest.raises(ValueError, match=message):
        plan(mu_max, photons, eps, exact_backend=True)


def test_thermalization_depth_reference_value():
    assert thermalization_depth(100, 1e-6, 1e-3) == pytest.approx(9205.7, abs=0.1)


def test_thermalization_depth_limits():
    assert math.isinf(thermalization_depth(10, 0.01, 0.0))
    # more photons need more depth
    assert thermalization_depth(100, 0.01, 0.1) > thermalization_depth(10, 0.01, 0.1)


def test_depth_threshold_exponential_reference_value():
    assert depth_threshold_exponential(10**4, 0.5, 1.0, 0.01, 0.99) == pytest.approx(
        492.7, abs=0.1
    )


def test_depth_threshold_exponential_lossless_is_infinite():
    assert math.isinf(depth_threshold_exponential(100, 1.0, 1.0, 0.01, 1.0))


def test_depth_threshold_algebraic_reference_value():
    result = depth_threshold_algebraic(1.0, 2.0, 1.0, 0.02, 0.5, 10**4)
    assert result.depth == pytest.approx(9.0, abs=1e-9)
    assert result.gamma_beta_ratio == pytest.approx(0.25)
    assert result.efficient


def test_depth_threshold_algebraic_flags_inefficient_scaling():
    # gamma/beta >= 2 means the threshold depth grows too fast to help
    slow_decay = depth_threshold_algebraic(1.0, 0.3, 1.0, 0.02, 0.9, 100)
    assert slow_decay.gamma_beta_ratio == pytest.approx(3.0)
    assert not slow_decay.efficient
    fast_decay = depth_threshold_algebraic(1.0, 1.0, 1.0, 0.02, 0.9, 100)
    assert fast_decay.gamma_beta_ratio == pytest.approx(0.9)
    assert fast_decay.efficient


def test_plan_deep_lossy_circuit_goes_thermal():
    mu = 0.9**200
    decision = plan(mu, 10, 0.05, exact_backend=True)
    assert decision.regime == "thermal"
    assert decision.mu_max == mu and decision.photons == 10
    assert decision.thermal_valid  # mu is astronomically small here
    assert decision.surrogate_error == pytest.approx(10 * mu * mu)


def test_plan_shallow_circuit_goes_mps():
    decision = plan(0.99**2, 3, 0.01, exact_backend=True)
    assert decision.regime == "mps"
    assert not decision.thermal_valid
    assert decision.surrogate_error == pytest.approx(3 * 0.99**4)
    assert "exact tensor-network evolution" in decision.rationale


def test_plan_boundary_depth_is_thermal():
    # tau = 0.5, one photon, eps = 0.5**4: depth 2 meets N*mu^2 = eps exactly
    eps = 0.5**4
    at_bound = plan(0.5**2, 1, eps, exact_backend=True)
    assert at_bound.surrogate_error == eps
    assert at_bound.regime == "thermal" and at_bound.thermal_valid
    assert plan(0.5, 1, eps, exact_backend=True).regime == "mps"
    # four photons at mu = 0.25 also sit on the bound 4 * 0.0625 = 0.25
    assert plan(0.25, 4, 0.25, exact_backend=False).regime == "thermal"
    # 7 * mu**2 rounds to 0.05000000000000001 here: the verdict follows that error
    over = plan(0.08451542547285167, 7, 0.05, exact_backend=True)
    assert over.surrogate_error > 0.05
    assert over.regime == "mps" and not over.thermal_valid


def test_plan_without_exact_backend_has_no_regime():
    decision = plan(0.7**3, 3, 0.05, exact_backend=False)
    assert decision.regime is None and not decision.thermal_valid
    assert "N*mu_max^2 = 0.3529" in decision.rationale
    assert "eps = 0.05" in decision.rationale and "mixed loss" in decision.rationale


def test_plan_vacuum_is_thermal_at_any_loss():
    decision = plan(1.0, 0, 0.05, exact_backend=False)
    assert decision.regime == "thermal" and decision.surrogate_error == 0.0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_json_roundtrip_is_bit_exact():
    rng = make_stream(11)
    c = random_brickwork(5, 3, 0.85, rng)
    text = circuit_to_json(c)
    again = circuit_to_json(circuit_from_json(text))
    assert text == again


def test_json_roundtrip_preserves_transfer_matrix():
    rng = make_stream(12)
    c = random_brickwork(4, 2, 0.9, rng)
    c2 = circuit_from_json(circuit_to_json(c))
    assert np.array_equal(transfer_matrix(c), transfer_matrix(c2))


def test_json_omits_default_idle_transmission():
    c = _single_coupler_circuit(0.3)
    doc = json.loads(circuit_to_json(c))
    assert "idle_tau" not in doc["layers"][0]


def test_json_defaults_for_optional_gate_fields():
    doc = {
        "modes": 2,
        "layers": [{"couplers": [{"mode": 0, "theta": 0.5}], "phases": [0.0, 0.0]}],
    }
    c = circuit_from_json(json.dumps(doc))
    assert c.phi.tolist() == [0.0] and c.tau.tolist() == [1.0]


def test_json_rejects_malformed_document():
    with pytest.raises(ValueError):
        circuit_from_json('{"modes": 2}')
    with pytest.raises(ValueError):
        circuit_from_json("[1, 2, 3]")


def test_save_and_load_circuit(tmp_path):
    rng = make_stream(13)
    c = random_brickwork(4, 2, 0.95, rng)
    path = tmp_path / "circuit.json"
    path.write_text(circuit_to_json(c))
    loaded = circuit_from_json(path.read_text())
    assert circuit_to_json(loaded) == circuit_to_json(c)


def test_brickwork_alternates_gate_offsets():
    rng = make_stream(14)
    c = random_brickwork(6, 4, 1.0, rng)
    for i in range(c.depth):
        modes = c.gate_mode[c.offsets[i] : c.offsets[i + 1]].tolist()
        assert modes == list(range(i % 2, 5, 2))


def test_brickwork_deterministic_under_seed():
    c1 = random_brickwork(5, 3, 0.9, make_stream(21))
    c2 = random_brickwork(5, 3, 0.9, make_stream(21))
    assert circuit_to_json(c1) == circuit_to_json(c2)


def _brickwork_from_draws(modes, depth, tau, rng):
    """Reference brickwork: four uniforms per gate, drawn gate by gate and packed by layer."""
    layers = []
    for l in range(depth):
        phases, gates = [0.0] * modes, []
        for k in range(l % 2, modes - 1, 2):
            cos2, phi, pa, pb = rng.random(4).tolist()
            gates.append(CouplerGate(k, float(np.arccos(np.sqrt(cos2))), 2 * math.pi * phi, tau))
            phases[k], phases[k + 1] = 2 * math.pi * pa, 2 * math.pi * pb
        layers.append(Layer(tuple(gates), tuple(phases), tau))
    return LayeredCircuit.from_layers(modes, tuple(layers))


def _per_layer_transfer(c):
    """The transfer matrix as built before blocks were stacked: every block rebuilt layer by layer.

    Its products are per-layer (G, 2, 2) @ (G, 2, M) matmuls, so it differs
    from :func:`transfer_matrix`'s row rule in the last bits only."""
    a = np.eye(c.modes, dtype=complex)
    for l in range(c.depth):
        lo, hi = c.offsets[l], c.offsets[l + 1]
        phase = np.exp(1j * np.asarray(c.phases[l].tolist()))
        idle = np.ones(c.modes, dtype=bool)
        if hi > lo:
            pairs = np.array(c.gate_mode[lo:hi].tolist())[:, None] + np.arange(2)
            theta = np.array(c.theta[lo:hi].tolist())
            e = np.exp(1j * np.array(c.phi[lo:hi].tolist()))
            blocks = np.empty((len(pairs), 2, 2), dtype=complex)
            blocks[:, 0, 0] = blocks[:, 1, 1] = np.cos(theta)
            blocks[:, 0, 1] = e * np.sin(theta)
            blocks[:, 1, 0] = -np.conj(e) * np.sin(theta)
            blocks *= np.sqrt(np.array(c.tau[lo:hi].tolist()))[:, None, None]
            blocks *= phase[pairs][:, :, None]
            a[pairs] = blocks @ a[pairs]
            idle[pairs] = False
        a[idle] *= (math.sqrt(c.idle_tau[l]) * phase[idle])[:, None]
    return a


@pytest.mark.parametrize("modes,depth", [(1, 3), (2, 1), (7, 5), (6, 0)])
def test_brickwork_equals_per_gate_draws(modes, depth):
    rng_a, rng_b = make_stream(60 + modes), make_stream(60 + modes)
    c = random_brickwork(modes, depth, 0.93, rng_a)
    _assert_same_circuit(c, _brickwork_from_draws(modes, depth, 0.93, rng_b))
    assert rng_a.random() == rng_b.random()  # the stream advanced by the same draws


# the four benchmark sizes (modes, depth, tau), depth 0, and one and two modes
BIT_SIZES = [(200, 200, 0.98262), (14, 3, 0.9), (30, 150, 0.97), (8, 4, 0.9),
             (9, 0, 0.9), (1, 4, 0.8), (2, 5, 0.8), (2, 1, 1.0)]


@pytest.mark.parametrize("modes,depth,tau", BIT_SIZES)
def test_brickwork_and_transfer_bit_identical_to_scalar_reference(modes, depth, tau):
    c = random_brickwork(modes, depth, tau, make_stream(7 + depth))
    _assert_same_circuit(c, _brickwork_from_draws(modes, depth, tau, make_stream(7 + depth)))
    _assert_close_with_same_zeros(transfer_matrix(c), _per_layer_transfer(c))


@pytest.mark.parametrize("modes,depth,more", [(1, 0, 3), (1, 2, 5), (7, 0, 4), (7, 5, 3),
                                              (8, 3, 1), (2, 4, 2)])
def test_brickwork_is_the_prefix_of_a_deeper_one(modes, depth, more):
    """The first ``depth`` layers of a deeper brickwork from the same seed, bit for bit."""
    c = random_brickwork(modes, depth, 0.9, make_stream(70))
    deep = random_brickwork(modes, depth + more, 0.9, make_stream(70))
    g = deep.offsets[depth]
    prefix = LayeredCircuit(modes, deep.offsets[:depth + 1], deep.gate_mode[:g], deep.theta[:g],
                            deep.phi[:g], deep.tau[:g], deep.phases[:depth],
                            deep.idle_tau[:depth])
    _assert_same_circuit(c, prefix)


def _rebuilt_blocks(c):
    """Each coupler's full 2x2 unitary: its block, then the layer phases of its two modes."""
    pairs = c.gate_mode[:, None] + np.arange(2)
    phase = np.exp(1j * c.phases[c.gate_layer()[:, None], pairs])
    return phase[:, :, None] * coupler_blocks(c.theta, c.phi)


def test_brickwork_couplers_are_haar_on_u2():
    """Haar law on U(2): |U00|^2 ~ U(0, 1), E U_ij = 0, E|U_ij|^4 = 1/3, E[U00 U11] = 0
    and E[U00 conj(U01)] = E[U00 conj(U10)] = 0.

    19 900 couplers from one fixed seed.  The KS test rejects at p < 1e-4 and
    each of the 18 moment checks at 5 sigma (two-sided false-alarm rate 6e-7
    each).  The same checks run on the reference law
    :func:`reference.haar_unitary`, so the test fails by chance with
    probability about 2e-4."""
    brickwork = _rebuilt_blocks(random_brickwork(200, 200, 1.0, make_stream(80)))
    reference = haar_unitary(2, make_stream(81), len(brickwork))
    for u in (brickwork, reference):
        n = len(u)
        assert np.allclose(u @ u.conj().transpose(0, 2, 1), np.eye(2), rtol=0.0, atol=1e-14)
        assert stats.kstest(np.abs(u[:, 0, 0]) ** 2, "uniform").pvalue > 1e-4
        first = u.mean(axis=0)  # E = 0; real and imaginary sd sqrt(1/4)
        assert np.all(np.maximum(abs(first.real), abs(first.imag)) <= 5 * math.sqrt(1 / 4 / n))
        fourth = np.abs(u) ** 4  # E = 1/3, sd = sqrt(1/5 - 1/9)
        assert np.all(np.abs(fourth.mean(axis=0) - 1 / 3) <= 5 * math.sqrt(4 / 45 / n))
        for cross, var in ((u[:, 0, 0] * u[:, 1, 1], 1 / 6),  # E = 0; var of each part
                           (u[:, 0, 0] * u[:, 0, 1].conj(), 1 / 12),
                           (u[:, 0, 0] * u[:, 1, 0].conj(), 1 / 12)):
            mean = cross.mean()
            assert max(abs(mean.real), abs(mean.imag)) <= 5 * math.sqrt(var / n)


def _assert_close_with_same_zeros(a, ref):
    """Within 1e-13, and exactly zero in exactly the entries where ``ref`` is: a thermal
    draw at intensity 0 takes no random numbers, so a stray 1e-33 would move the stream."""
    assert a.shape == ref.shape and np.abs(a - ref).max(initial=0.0) <= 1e-13
    assert np.array_equal(a == 0, ref == 0)


MIXED = [(7, 12, None), (8, 9, None), (5, 6, 3), (1, 3, None)]


def test_transfer_matches_per_layer_reference_on_mixed_circuits():
    for modes, depth, blocking in MIXED:
        c = _mixed_circuit(modes, depth, make_stream(90 + modes), blocking_layer=blocking)
        _assert_close_with_same_zeros(transfer_matrix(c), _per_layer_transfer(c))


def _column_subsets(modes):
    """Distinct columns only: numpy's complex multiply rounds a one-element loop
    without FMA, so a repeated column of a one-mode circuit may differ in its last bit."""
    everything = np.arange(modes)
    return [everything, everything[1::3], everything[::-2], [modes - 1], [0],
            np.array([], dtype=int), list(dict.fromkeys([modes // 2, 0, modes - 1]))]


@pytest.mark.parametrize("modes,depth,tau", BIT_SIZES)
def test_transfer_columns_are_the_full_matrix_columns_bit_for_bit(modes, depth, tau):
    c = random_brickwork(modes, depth, tau, make_stream(7 + depth))
    full = transfer_matrix(c)
    for cols in _column_subsets(modes):
        _assert_same_bits(transfer_matrix(c, cols), full[:, cols])


def test_transfer_columns_bit_for_bit_on_mixed_circuits():
    for modes, depth, blocking in MIXED:
        c = _mixed_circuit(modes, depth, make_stream(90 + modes), blocking_layer=blocking)
        full = transfer_matrix(c)
        for cols in _column_subsets(modes):
            _assert_same_bits(transfer_matrix(c, cols), full[:, cols])


@pytest.mark.parametrize("modes,depth,tau", BIT_SIZES[1:])
def test_json_roundtrip_keeps_every_bit(modes, depth, tau):
    c = random_brickwork(modes, depth, tau, make_stream(3))
    text = circuit_to_json(c)
    again = circuit_from_json(text)
    _assert_same_circuit(c, again)
    assert circuit_to_json(again) == text
    mixed = _mixed_circuit(6, 5, make_stream(4), blocking_layer=2)
    _assert_same_circuit(mixed, circuit_from_json(circuit_to_json(mixed)))


def test_lossless_copy_keeps_angles_and_phases():
    c = random_brickwork(6, 4, 0.8, make_stream(8))
    lc = c.lossless_copy()
    for name in ("offsets", "gate_mode", "theta", "phi", "phases"):
        _assert_same_bits(getattr(lc, name), getattr(c, name))
    assert lc.tau.tolist() == [1.0] * len(c.tau) and lc.idle_tau.tolist() == [1.0] * 4
