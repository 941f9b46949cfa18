"""Tests for circuit construction, loss decomposition, and thresholds."""

import json
import math

import numpy as np
import pytest

from lossyboson import (
    CouplerGate,
    DegenerateCircuitError,
    Layer,
    LayeredCircuit,
    ModelViolationError,
    circuit_from_json,
    circuit_to_json,
    decompose_losses,
    depth_threshold_algebraic,
    depth_threshold_exponential,
    factor_nonuniform,
    haar_unitary,
    load_circuit,
    make_stream,
    plan,
    random_brickwork,
    save_circuit,
    simulability_condition,
    thermalization_depth,
    transfer_matrix,
)
from lossyboson.circuit import _bs_params_from_block


def _single_coupler_circuit(theta, phi=0.0, tau=1.0, phases=(0.0, 0.0)):
    layer = Layer(couplers=(CouplerGate(0, theta, phi, tau),), phases=phases)
    return LayeredCircuit(modes=2, layers=(layer,))


# ---------------------------------------------------------------------------
# gates and layers
# ---------------------------------------------------------------------------


def test_coupler_block_at_zero_angle_is_identity():
    g = CouplerGate(0, 0.0)
    assert np.allclose(g.block, np.eye(2))


def test_coupler_block_is_unitary():
    g = CouplerGate(0, 0.7, phi=1.3)
    assert np.allclose(g.block @ g.block.conj().T, np.eye(2), atol=1e-14)


def test_coupler_block_structure():
    theta, phi = 0.4, 0.9
    g = CouplerGate(0, theta, phi)
    c, s = math.cos(theta), math.sin(theta)
    e = np.exp(1j * phi)
    expected = np.array([[c, e * s], [-np.conj(e) * s, c]])
    assert np.allclose(g.block, expected)


def test_coupler_rejects_gain():
    with pytest.raises(ModelViolationError):
        CouplerGate(0, 0.1, tau=1.0 + 1e-6)


def test_coupler_rejects_negative_transmission():
    with pytest.raises(ValueError):
        CouplerGate(0, 0.1, tau=-0.1)


def test_layer_rejects_overlapping_couplers():
    with pytest.raises(ValueError):
        Layer(
            couplers=(CouplerGate(0, 0.1), CouplerGate(1, 0.2)),
            phases=(0.0, 0.0, 0.0),
        )


def test_layer_rejects_idle_gain():
    with pytest.raises(ModelViolationError):
        Layer(couplers=(), phases=(0.0,), idle_tau=1.1)


def test_layer_covered_modes():
    layer = Layer(
        couplers=(CouplerGate(0, 0.1), CouplerGate(3, 0.2)),
        phases=(0.0,) * 5,
    )
    assert layer.covered_modes() == {0, 1, 3, 4}


# ---------------------------------------------------------------------------
# transfer matrices
# ---------------------------------------------------------------------------


def test_empty_circuit_transfer_is_identity():
    c = LayeredCircuit(modes=3, layers=())
    assert np.allclose(transfer_matrix(c), np.eye(3))


def test_single_layer_applies_phases_after_coupler():
    theta, phi = 0.6, 0.2
    phases = (0.3, -0.8)
    c = _single_coupler_circuit(theta, phi, phases=phases)
    g = CouplerGate(0, theta, phi)
    expected = np.diag(np.exp(1j * np.array(phases))) @ g.block
    assert np.allclose(transfer_matrix(c), expected, atol=1e-14)


def test_layers_compose_in_temporal_order():
    """For layers listed first-to-last, the transfer is (last) @ ... @ (first)."""
    l1 = Layer(couplers=(CouplerGate(0, 0.3),), phases=(0.0, 0.0))
    l2 = Layer(couplers=(CouplerGate(0, 1.1, 0.4),), phases=(0.5, 0.0))
    c = LayeredCircuit(modes=2, layers=(l1, l2))
    m1 = transfer_matrix(LayeredCircuit(2, (l1,)))
    m2 = transfer_matrix(LayeredCircuit(2, (l2,)))
    assert np.allclose(transfer_matrix(c), m2 @ m1, atol=1e-14)


def test_gate_loss_scales_block_by_sqrt_tau():
    tau = 0.64
    c = _single_coupler_circuit(0.5, tau=tau)
    lossless = _single_coupler_circuit(0.5, tau=1.0)
    assert np.allclose(
        transfer_matrix(c), math.sqrt(tau) * transfer_matrix(lossless), atol=1e-14
    )


def test_idle_modes_see_idle_transmission():
    layer = Layer(couplers=(CouplerGate(0, 0.2),), phases=(0.0,) * 3, idle_tau=0.49)
    c = LayeredCircuit(modes=3, layers=(layer,))
    a = transfer_matrix(c)
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
    assert lc.is_lossless() and not c.is_lossless()
    # same interference pattern: lossy transfer = tau^(D/2) * lossless transfer
    scale = 0.8 ** (3 / 2)
    assert np.allclose(transfer_matrix(c), scale * transfer_matrix(lc), atol=1e-12)


def test_uniform_tau_on_mixed_circuit_raises():
    l1 = Layer(couplers=(CouplerGate(0, 0.3, tau=0.9),), phases=(0.0, 0.0), idle_tau=0.9)
    l2 = Layer(couplers=(CouplerGate(0, 0.3, tau=0.8),), phases=(0.0, 0.0), idle_tau=0.8)
    c = LayeredCircuit(modes=2, layers=(l1, l2))
    with pytest.raises(ValueError):
        c.uniform_tau()


def _dense_transfer(circuit):
    """Reference transfer matrix: one dense M x M layer matrix per layer, multiplied in order."""
    a = np.eye(circuit.modes, dtype=complex)
    for layer in circuit.layers:
        mat = np.diag(np.full(circuit.modes, math.sqrt(layer.idle_tau), dtype=complex))
        for g in layer.couplers:
            mat[g.mode : g.mode + 2, g.mode : g.mode + 2] = math.sqrt(g.tau) * g.block
        a = (np.exp(1j * np.asarray(layer.phases))[:, None] * mat) @ a
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
    return LayeredCircuit(modes, tuple(layers))


@pytest.mark.parametrize("modes,depth,blocking", [(7, 12, None), (8, 9, None), (5, 6, 3), (1, 3, None)])
def test_transfer_matrix_matches_dense_layer_product(modes, depth, blocking):
    c = _mixed_circuit(modes, depth, make_stream(40 + modes), blocking_layer=blocking)
    assert len({l.idle_tau for l in c.layers} | {g.tau for l in c.layers for g in l.couplers}) > 2
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
    dec = decompose_losses(transfer_matrix(c))
    assert np.allclose(dec.transmissions, 0.9**depth, atol=1e-10)


def test_decompose_losses_reconstructs():
    rng = make_stream(9)
    c = random_brickwork(5, 2, 0.7, rng)
    a = transfer_matrix(c)
    dec = decompose_losses(a)
    assert np.allclose(dec.reconstruct(), a, atol=1e-12)


def test_decompose_losses_clips_roundoff_overshoot():
    # a numerically-almost-unitary matrix may overshoot 1 by float error
    a = np.eye(3) * (1.0 + 1e-10)
    dec = decompose_losses(a)
    assert np.all(dec.transmissions <= 1.0)


def test_decompose_losses_rejects_amplification():
    with pytest.raises(ModelViolationError):
        decompose_losses(np.eye(2) * 1.01)


def test_factor_nonuniform_splits_worst_channel():
    rng = make_stream(10)
    # layered circuit with non-uniform loss: one lossy gate in a 3-mode layer
    layer = Layer(couplers=(CouplerGate(0, 0.4, tau=0.5),), phases=(0.0,) * 3)
    c = LayeredCircuit(modes=3, layers=(layer,))
    a = transfer_matrix(c)
    fac = factor_nonuniform(decompose_losses(a))
    assert fac.mu_max == pytest.approx(1.0)  # the idle mode is lossless
    assert np.allclose(
        fac.residual.reconstruct() * math.sqrt(fac.mu_max), a, atol=1e-12
    )
    # residual channel transmissions are mu_i / mu_max <= 1
    res_dec = decompose_losses(fac.residual.reconstruct())
    assert np.all(res_dec.transmissions <= 1.0 + 1e-12)


def test_factor_nonuniform_rejects_fully_blocked_circuit():
    with pytest.raises(DegenerateCircuitError):
        factor_nonuniform(decompose_losses(np.zeros((2, 2))))


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def test_simulability_boundary_is_inclusive():
    assert simulability_condition(0.01, 100, 0.01)
    assert not simulability_condition(0.01 + 1e-9, 100, 0.01)


def test_simulability_matches_quadratic_budget():
    """mu <= sqrt(eps/N) is the same test as N*mu^2 <= eps."""
    n, eps = 100, 0.02
    for mu in np.linspace(0.01, 0.30, 30):
        assert simulability_condition(float(mu), n, eps) == (n * mu * mu <= eps)


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
    assert c.layers[0].couplers[0].phi == 0.0
    assert c.layers[0].couplers[0].tau == 1.0


def test_json_rejects_malformed_document():
    with pytest.raises(ValueError):
        circuit_from_json('{"modes": 2}')
    with pytest.raises(ValueError):
        circuit_from_json("[1, 2, 3]")


def test_save_and_load_circuit(tmp_path):
    rng = make_stream(13)
    c = random_brickwork(4, 2, 0.95, rng)
    path = tmp_path / "circuit.json"
    save_circuit(c, str(path))
    loaded = load_circuit(str(path))
    assert circuit_to_json(loaded) == circuit_to_json(c)


def test_brickwork_alternates_gate_offsets():
    rng = make_stream(14)
    c = random_brickwork(6, 4, 1.0, rng)
    for i, layer in enumerate(c.layers):
        offsets = sorted(g.mode for g in layer.couplers)
        expected_start = i % 2
        assert offsets == list(range(expected_start, 5, 2))


def test_brickwork_deterministic_under_seed():
    c1 = random_brickwork(5, 3, 0.9, make_stream(21))
    c2 = random_brickwork(5, 3, 0.9, make_stream(21))
    assert circuit_to_json(c1) == circuit_to_json(c2)


def _brickwork_per_gate(modes, depth, tau, rng):
    """Reference brickwork: one haar_unitary(2) draw per gate, in gate order."""
    layers = []
    for l in range(depth):
        phases, gates = [0.0] * modes, []
        for k in range(l % 2, modes - 1, 2):
            theta, phi, pa, pb = _bs_params_from_block(haar_unitary(2, rng))
            gates.append(CouplerGate(k, theta, phi, tau))
            phases[k] += pa
            phases[k + 1] += pb
        layers.append(Layer(tuple(gates), tuple(phases), tau))
    return LayeredCircuit(modes, tuple(layers))


@pytest.mark.parametrize("modes,depth", [(1, 3), (2, 1), (7, 5), (6, 0)])
def test_brickwork_equals_per_gate_draws(modes, depth):
    rng_a, rng_b = make_stream(60 + modes), make_stream(60 + modes)
    c = random_brickwork(modes, depth, 0.93, rng_a)
    assert c == _brickwork_per_gate(modes, depth, 0.93, rng_b)
    assert rng_a.random() == rng_b.random()  # the stream advanced by the same draws
