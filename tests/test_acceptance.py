"""Acceptance suite: thirteen end-to-end criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
each test prints exactly one ``acceptance NN <label>: PASS|FAIL`` line and
fails the usual pytest way if its criterion is not met.
"""

import json
import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from lossyboson.circuit import (
    CouplerGate,
    Layer,
    LayeredCircuit,
    circuit_to_json,
    decompose_losses,
    depth_threshold_algebraic,
    plan,
    random_brickwork,
    thermalization_depth,
    transfer_matrix,
)
from lossyboson.cli import main as cli_main
from lossyboson.mps import (
    coupler_mpo,
    lossy_input_sample,
    outcome_probability,
    sample,
    simulate_circuit,
)
from lossyboson.numerics import Distribution, haar_unitary, total_variation
from lossyboson.oracle import (
    fock_output_distribution,
    lossy_exact_distribution,
    thermal_exact_distribution,
)
from lossyboson.rng import make_stream
from lossyboson.sampler import ThermalSource
from lossyboson.thermal import (
    ThermalParams,
    gauss_hermite_constellation,
    sample_output,
)
from paper_stages import (
    chi2_constellation,
    constellation_hermite_moments,
    thermal_vs_erasure_distance,
)


def _verdict(num: int, label: str, ok: bool, detail: str = ""):
    print(f"acceptance {num:02d} {label}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def test_acceptance_01_thermalization_depth_reference():
    value = thermalization_depth(100, 1e-6, 1e-3)
    _verdict(1, "thermalization depth 9205.7±0.1", abs(value - 9205.7) <= 0.1,
             f"value={value:.4f}")


def test_acceptance_02_distance_identity_and_simulability():
    grid = np.linspace(0.01, 0.30, 30)
    worst = max(
        abs(thermal_vs_erasure_distance(float(mu), float(mu)) - mu * mu)
        for mu in grid
    )
    n, eps = 100, 0.02
    equivalence = all(
        plan(float(mu), n, eps, exact_backend=True).thermal_valid == (n * mu * mu <= eps)
        for mu in grid
    )
    both_branches = any(n * mu * mu <= eps for mu in grid) and any(
        n * mu * mu > eps for mu in grid
    )
    _verdict(2, "matched-rate distance = mu^2 and budget iff",
             worst <= 1e-14 and equivalence and both_branches,
             f"max |D - mu^2| = {worst:.2e}")


def test_acceptance_03_mps_matches_permanent_oracle():
    rng = make_stream(1000)
    worst = 0.0
    for _ in range(50):
        modes = int(rng.integers(2, 7))
        depth = int(rng.integers(1, 5))
        photons = int(rng.integers(1, min(modes, 3) + 1))
        circuit = random_brickwork(modes, depth, 1.0, rng)
        pattern = (1,) * photons + (0,) * (modes - photons)
        exact = fock_output_distribution(transfer_matrix(circuit), pattern)
        state = simulate_circuit(circuit, pattern)
        probs = np.array([outcome_probability(state, o) for o in exact.outcomes])
        worst = max(worst, 0.5 * float(np.abs(probs - exact.weights).sum()))
    _verdict(3, "MPS vs oracle TVD < 1e-10 over 50 circuits", worst < 1e-10,
             f"worst TVD = {worst:.2e}")


def test_acceptance_04_hong_ou_mandel():
    balanced = LayeredCircuit.from_layers(
        2, (Layer(couplers=(CouplerGate(0, math.pi / 4),), phases=(0.0, 0.0)),),
    )
    oracle_p11 = fock_output_distribution(
        transfer_matrix(balanced), (1, 1)
    ).as_dict()[(1, 1)]
    state = simulate_circuit(balanced, (1, 1))
    mps_p11 = outcome_probability(state, (1, 1))
    rng = make_stream(1001)
    coincidences = int((sample(state, rng, 10**5) == (1, 1)).all(axis=1).sum())
    _verdict(4, "Hong-Ou-Mandel coincidence suppressed",
             oracle_p11 < 1e-12 and mps_p11 < 1e-12 and coincidences == 0,
             f"oracle={oracle_p11:.1e} mps={mps_p11:.1e} counts={coincidences}")


def test_acceptance_05_thermal_sampler_end_to_end():
    rng = make_stream(1002)
    eps, lam, trials = 0.05, 0.1, 10**5
    u = haar_unitary(2, rng)
    reference = thermal_exact_distribution(u, lam, 2, cutoff=8)
    params = ThermalParams(lam)
    rows, freq = np.unique(sample_output(u, params, np.ones((trials, 2), dtype=int), rng),
                           axis=0, return_counts=True)
    counts = {tuple(int(x) for x in row): int(c) for row, c in zip(rows, freq)}
    empirical = Distribution(
        outcomes=tuple(counts),
        weights=np.array([c / trials for c in counts.values()]),
    )
    tvd = total_variation(empirical, reference)
    bound = eps + 3.0 * math.sqrt(len(reference.outcomes) / (4.0 * trials))
    _verdict(5, "thermal sampler within eps of exact law", tvd <= bound,
             f"TVD={tvd:.4f} bound={bound:.4f}")


def test_acceptance_06_lossy_mps_thinning_matches_exact():
    rng = make_stream(1003)
    mu, trials = 0.5, 10**5
    circuit = random_brickwork(4, 2, 1.0, rng)
    u = transfer_matrix(circuit)
    reference = lossy_exact_distribution(u, mu, (1, 1, 0, 0))
    states = {}
    for bits in range(4):
        pattern = (bits & 1, (bits >> 1) & 1, 0, 0)
        states[pattern] = simulate_circuit(circuit, pattern)
    keep = lossy_input_sample(2 * trials, mu, rng).reshape(trials, 2)
    draws = np.empty((trials, 4), dtype=int)
    for pattern, state in states.items():
        rows = np.flatnonzero((keep == pattern[:2]).all(axis=1))
        draws[rows] = sample(state, rng, len(rows))
    outcomes, freq = np.unique(draws, axis=0, return_counts=True)
    counts = {tuple(int(x) for x in o): int(c) for o, c in zip(outcomes, freq)}
    empirical = Distribution(
        outcomes=tuple(counts),
        weights=np.array([c / trials for c in counts.values()]),
    )
    tvd = total_variation(empirical, reference)
    bound = 3.0 * math.sqrt(len(reference.outcomes) / (4.0 * trials))
    _verdict(6, "lossy thinning sampler within 3-sigma", tvd <= bound,
             f"TVD={tvd:.4f} bound={bound:.4f}")


def test_acceptance_07_quadrature_exactness_and_closed_forms():
    worst = 0.0
    for m in range(1, 11):
        moments = constellation_hermite_moments(
            gauss_hermite_constellation(m), 2 * m - 1
        )
        if m > 1:
            worst = max(worst, float(np.abs(moments[1:]).max()))
        else:
            worst = max(worst, abs(float(moments[1])))
    c2 = gauss_hermite_constellation(2)
    c3 = gauss_hermite_constellation(3)
    closed = max(
        float(np.abs(c2.points - [-1.0, 1.0]).max()),
        float(np.abs(c2.weights - [0.5, 0.5]).max()),
        float(np.abs(c3.points - [-math.sqrt(3), 0.0, math.sqrt(3)]).max()),
        float(np.abs(c3.weights - [1 / 6, 2 / 3, 1 / 6]).max()),
    )
    _verdict(7, "quadrature kills Hermite moments below 2m",
             worst < 1e-10 and closed <= 1e-12,
             f"max moment={worst:.1e} closed-form dev={closed:.1e}")


def test_acceptance_08_binomial_poisson_tvd_bound():
    ok = True
    worst_margin = -1.0
    for x in (0.5, 1.0, 2.0):
        for t in (10, 100, 1000):
            ks = np.arange(t + 1)
            binom = scipy_stats.binom.pmf(ks, t, x / t)
            poisson = scipy_stats.poisson.pmf(ks, x)
            tvd = 0.5 * float(np.abs(binom - poisson).sum())
            tvd += 0.5 * float(scipy_stats.poisson.sf(t, x))
            bound = (1.0 - math.exp(-x)) * x / t
            ok = ok and tvd <= bound
            worst_margin = max(worst_margin, tvd - bound)
    _verdict(8, "binomial-vs-poisson TVD within analytic bound", ok,
             f"worst (TVD - bound) = {worst_margin:.2e}")


def test_acceptance_09_chi_square_budget():
    ok = True
    worst = -math.inf
    for m in range(2, 9):
        for lam in (0.1, 0.3, 0.5):
            excess = chi2_constellation(m, lam, 200) - 2.36 * lam**m / (1.0 - lam)
            worst = max(worst, excess)
            ok = ok and excess <= 0.0
    _verdict(9, "chi-square within 2.36 lam^m/(1-lam)", ok,
             f"worst excess = {worst:.2e}")


def test_acceptance_10_bond_growth_bounds():
    rng = make_stream(1004)
    d = 2
    ok_rank = coupler_mpo(haar_unitary(2, rng), d).rank <= (d + 1) ** 2
    ok_bond = True
    detail = []
    for depth in (1, 2, 3):
        circuit = random_brickwork(6, depth, 1.0, rng)
        state = simulate_circuit(circuit, (1, 1, 0, 0, 0, 0))
        ok_bond = ok_bond and state.peak_bond <= (d + 1) ** (2 * depth)
        detail.append(f"D={depth}:{state.peak_bond}<={(d+1)**(2*depth)}")
    _verdict(10, "MPO rank and bond growth bounded", ok_rank and ok_bond,
             " ".join(detail))


def test_acceptance_11_loss_model_uniform_and_nonuniform():
    rng = make_stream(1005)
    worst = 0.0
    for depth in range(1, 6):
        circuit = random_brickwork(6, depth, 0.9, rng)
        mu = decompose_losses(transfer_matrix(circuit))
        worst = max(worst, float(np.abs(mu - 0.9**depth).max()))
    layer = Layer(couplers=(CouplerGate(0, 0.4, tau=0.5),), phases=(0.0,) * 3)
    a = transfer_matrix(LayeredCircuit.from_layers(3, (layer,)))
    mu_max = float(decompose_losses(a).max())
    residual = ThermalSource(a, mu_max).residual
    recombine_dev = float(np.abs(residual * math.sqrt(mu_max) - a).max())
    top_dev = abs(float(decompose_losses(residual).max()) - 1.0)
    _verdict(11, "uniform loss = tau^D and nonuniform recombines",
             worst <= 1e-10 and recombine_dev <= 1e-12 and top_dev <= 1e-12,
             f"max |mu - tau^D| = {worst:.1e} recombine dev = {recombine_dev:.1e} "
             f"residual top dev = {top_dev:.1e}")


def test_acceptance_12_algebraic_threshold_reference():
    result = depth_threshold_algebraic(1.0, 2.0, 1.0, 0.02, 0.5, 10**4)
    _verdict(12, "algebraic depth threshold 9.0±1e-9",
             abs(result.depth - 9.0) <= 1e-9 and result.efficient,
             f"depth={result.depth!r} gamma/beta={result.gamma_beta_ratio}")


def test_acceptance_13_sampling_is_deterministic(tmp_path):
    circuit_path = tmp_path / "c.json"
    circuit_path.write_text(circuit_to_json(random_brickwork(4, 2, 0.9, make_stream(1006))))
    argv = ["sample", "--circuit", str(circuit_path), "--photons", "2",
            "--seed", "123", "--samples", "50", "--workers", "1"]
    out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    code1 = cli_main(argv + ["--out", str(out1)])
    code2 = cli_main(argv + ["--out", str(out2)])
    same_lines = out1.read_bytes() == out2.read_bytes()
    same_meta = (tmp_path / "r1.jsonl.meta.json").read_bytes() == (
        tmp_path / "r2.jsonl.meta.json"
    ).read_bytes()
    _verdict(13, "fixed-seed sampling is byte-identical",
             code1 == 0 and code2 == 0 and same_lines and same_meta,
             f"lines identical={same_lines} sidecar identical={same_meta}")
