"""Tests for the command-line interface."""

import ast
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import lossyboson.circuit
from lossyboson import cli
from lossyboson.circuit import (circuit_from_json, circuit_to_json, random_brickwork,
                                transfer_matrix)
from lossyboson.cli import _write_rows, main
from lossyboson.oracle import fock_output_distribution, lossy_exact_distribution
from lossyboson.rng import make_stream


@pytest.fixture
def shallow_lossless(tmp_path):
    path = tmp_path / "shallow.json"
    path.write_text(circuit_to_json(random_brickwork(4, 2, 1.0, make_stream(1))))
    return str(path)


@pytest.fixture
def shallow_lossy(tmp_path):
    path = tmp_path / "lossy.json"
    path.write_text(circuit_to_json(random_brickwork(4, 2, 0.8, make_stream(2))))
    return str(path)


@pytest.fixture
def deep_lossy(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(circuit_to_json(random_brickwork(4, 30, 0.7, make_stream(3))))
    return str(path)


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def test_plan_reports_thresholds(shallow_lossy, capsys):
    code = main(["plan", "--circuit", shallow_lossy, "--photons", "2", "--eps", "0.05"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regime"] in ("thermal", "mps")
    assert doc["mu_effective"] == pytest.approx(0.8**2)
    assert doc["depth_threshold_exponential"] > 0
    assert "rationale" in doc and "thermal_valid" in doc


def test_plan_deep_circuit_selects_thermal(deep_lossy, capsys):
    code = main(["plan", "--circuit", deep_lossy, "--photons", "2", "--eps", "0.05"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regime"] == "thermal"
    assert doc["thermal_valid"] is True
    assert doc["depth"] >= doc["depth_threshold_exponential"]


def test_plan_without_circuit_uses_explicit_geometry(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"modes": 100, "depth": 200, "tau": 0.9, "photons": 5}))
    code = main(["plan", "--config", str(cfg)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regime"] == "thermal"


@pytest.mark.parametrize("modes", [-3, 0])
def test_plan_without_circuit_rejects_non_positive_modes(tmp_path, capsys, modes):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"modes": modes, "depth": 2, "tau": 0.9, "density_gamma": 0.5}))
    assert main(["plan", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"usage error: plan needs modes >= 1, got {modes}" in err


def test_plan_reports_thermalization_depth_reference(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "modes": 100, "depth": 1, "tau": 0.999, "photons": 100, "eps": 1e-6,
    }))
    code = main(["plan", "--config", str(cfg)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["thermalization_depth"] == pytest.approx(9205.7, abs=0.1)


def test_plan_lossless_circuit_reports_thermal_unreachable(shallow_lossless, capsys):
    code = main(["plan", "--circuit", shallow_lossless, "--photons", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regime"] == "mps"
    assert "unreachable" in doc["rationale"]
    assert doc["depth_threshold_exponential"] is None


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("where", ["circuit", "geometry"])
def test_plan_prints_strict_json_for_a_lossless_circuit(shallow_lossless, tmp_path, capsys, where):
    """Depths that no loss reaches are null: JSON has no Infinity."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"circuit": shallow_lossless} if where == "circuit"
                              else {"modes": 6, "depth": 3, "tau": 1.0}))
    assert main(["plan", "--config", str(cfg), "--photons", "2"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert doc["thermalization_depth"] is None
    assert doc["depth_threshold_exponential"] is None


def test_plan_zero_photons_is_a_usage_error_like_sample(shallow_lossy, tmp_path, capsys):
    """The density law fills in only a missing photon number, never an explicit 0."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"modes": 6, "depth": 3, "tau": 0.9}))
    for argv in (["plan", "--config", str(cfg)], ["plan", "--circuit", shallow_lossy],
                 ["sample", "--circuit", shallow_lossy]):
        assert main([*argv, "--photons", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and '"photons"' in captured.err


def test_plan_reports_algebraic_threshold(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "modes": 10**4, "depth": 20, "tau": 0.5, "photons": 1, "eps": 0.02,
        "density_k": 1.0, "density_gamma": 0.5,
        "algebraic": {"d_len": 1.0, "beta": 2.0},
    }))
    code = main(["plan", "--config", str(cfg)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["algebraic"]["depth_threshold"] == pytest.approx(9.0, abs=1e-9)
    assert doc["algebraic"]["efficient"] is True


def test_plan_derives_photon_number_from_density(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "modes": 16, "depth": 1, "tau": 0.9, "eps": 0.05, "density_k": 0.5,
    }))
    assert main(["plan", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["photons"] == 8


def test_plan_and_auto_agree_on_density_k_config(tmp_path, capsys):
    """N*mu^2 = 10 * 0.9**40 = 0.148 > 0.05: both must pick mps, whatever density_k says."""
    brickwork = {"brickwork": {"modes": 10, "depth": 20, "tau": 0.9, "seed": 3}}
    geometry = {"modes": 10, "depth": 20, "tau": 0.9}
    for where in ({"circuit": brickwork}, geometry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**where, "photons": 10, "density_k": 0.1}))
        assert main(["plan", "--config", str(cfg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["regime"] == "mps" and doc["thermal_valid"] is False
        assert doc["surrogate_error"] == pytest.approx(10 * 0.9**40, rel=1e-9)
    cfg.write_text(json.dumps({"circuit": brickwork, "photons": 10, "density_k": 0.1}))
    assert main(["sample", "--config", str(cfg), "--seed", "1", "--samples", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert {json.loads(ln)["regime"] for ln in lines} == {"mps"}


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def test_sample_writes_jsonl_schema(shallow_lossless, tmp_path, capsys):
    out = tmp_path / "s.jsonl"
    code = main([
        "sample", "--circuit", shallow_lossless, "--photons", "2",
        "--seed", "7", "--samples", "12", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 12
    for ln in lines:
        doc = json.loads(ln)
        assert set(doc) == {"n", "regime"}
        assert len(doc["n"]) == 4
        assert all(isinstance(x, int) and x >= 0 for x in doc["n"])
        assert doc["regime"] in ("thermal", "mps", "oracle")


def test_sample_fixed_seed_is_byte_identical(shallow_lossless, tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["sample", "--circuit", shallow_lossless, "--photons", "2",
            "--seed", "11", "--samples", "20"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # the metadata sidecar is deterministic too (no timestamps)
    assert (tmp_path / "a.jsonl.meta.json").read_bytes() == (
        tmp_path / "b.jsonl.meta.json"
    ).read_bytes()


def test_sample_different_seeds_differ(shallow_lossless, tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    base = ["sample", "--circuit", shallow_lossless, "--photons", "2", "--samples", "30"]
    main(base + ["--seed", "1", "--out", str(out1)])
    main(base + ["--seed", "2", "--out", str(out2)])
    assert out1.read_bytes() != out2.read_bytes()


def test_sample_csv_format(shallow_lossless, capsys):
    code = main([
        "sample", "--circuit", shallow_lossless, "--photons", "1",
        "--seed", "3", "--samples", "5", "--format", "csv",
    ])
    assert code == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 5
    for row in rows:
        cells = row.split(",")
        assert len(cells) == 4
        assert all(c.isdigit() for c in cells)


def test_sample_worker_split_covers_all_samples(shallow_lossless, tmp_path):
    out = tmp_path / "w.jsonl"
    code = main([
        "sample", "--circuit", shallow_lossless, "--photons", "2",
        "--seed", "5", "--samples", "11", "--workers", "3", "--out", str(out),
    ])
    assert code == 0
    assert len(out.read_text().splitlines()) == 11
    meta = json.loads((tmp_path / "w.jsonl.meta.json").read_text())
    assert meta["workers"] == 3 and meta["samples"] == 11


def test_sample_mps_workers_output_is_byte_identical(shallow_lossy, tmp_path):
    argv = ["sample", "--circuit", shallow_lossy, "--photons", "3", "--mode", "mps",
            "--seed", "8", "--samples", "301", "--workers", "3"]
    outs = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for out in outs:
        assert main(argv + ["--out", str(out)]) == 0
    text = outs[0].read_bytes()
    assert len(text.splitlines()) == 301 and b'"regime":"mps"' in text
    assert text == outs[1].read_bytes()


def test_sample_meta_sidecar_contents(shallow_lossy, tmp_path):
    out = tmp_path / "m.jsonl"
    main([
        "sample", "--circuit", shallow_lossy, "--photons", "2",
        "--seed", "9", "--samples", "4", "--mode", "mps", "--out", str(out),
    ])
    meta = json.loads((tmp_path / "m.jsonl.meta.json").read_text())
    assert meta["command"] == "sample"
    assert meta["regime"] == "mps"
    assert meta["seed"] == 9
    assert meta["modes"] == 4 and meta["photons"] == 2
    assert meta["thresholds"] == {
        "mu_effective": pytest.approx(0.8**2), "surrogate_error": pytest.approx(2 * 0.8**4)}
    assert len(meta["config_hash"]) == 64


def test_sample_auto_regime_matches_plan(deep_lossy, tmp_path):
    out = tmp_path / "t.jsonl"
    code = main([
        "sample", "--circuit", deep_lossy, "--photons", "2",
        "--seed", "13", "--samples", "6", "--out", str(out),
    ])
    assert code == 0
    regimes = {json.loads(ln)["regime"] for ln in out.read_text().splitlines()}
    assert regimes == {"thermal"}


def test_sample_oracle_mode_matches_exact_law(shallow_lossless, tmp_path):
    out = tmp_path / "o.jsonl"
    code = main([
        "sample", "--circuit", shallow_lossless, "--photons", "2",
        "--seed", "17", "--samples", "4000", "--mode", "oracle", "--out", str(out),
    ])
    assert code == 0
    counts = {}
    for ln in out.read_text().splitlines():
        key = tuple(json.loads(ln)["n"])
        counts[key] = counts.get(key, 0) + 1
    u = transfer_matrix(random_brickwork(4, 2, 1.0, make_stream(1)))
    exact = fock_output_distribution(u, (1, 1, 0, 0)).as_dict()
    tvd = 0.5 * sum(abs(counts.get(o, 0) / 4000 - p) for o, p in exact.items())
    assert set(counts) <= set(exact)
    assert tvd < 0.05


def test_sample_oracle_hom_never_coincides(tmp_path, capsys):
    import math as _math

    hom = tmp_path / "hom.json"
    hom.write_text(json.dumps({
        "modes": 2,
        "layers": [{
            "couplers": [{"mode": 0, "theta": _math.pi / 4}],
            "phases": [0.0, 0.0],
        }],
    }))
    code = main([
        "sample", "--circuit", str(hom), "--photons", "2", "--seed", "29",
        "--samples", "1000", "--mode", "oracle",
    ])
    assert code == 0
    for ln in capsys.readouterr().out.splitlines():
        assert json.loads(ln)["n"] != [1, 1]


def test_sample_thermal_blocked_circuit_gives_vacuum(tmp_path, capsys):
    blocked = tmp_path / "blocked.json"
    blocked.write_text(circuit_to_json(random_brickwork(3, 1, 0.0, make_stream(8))))
    code = main([
        "sample", "--circuit", str(blocked), "--photons", "2", "--seed", "1",
        "--samples", "10", "--mode", "thermal",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert all(json.loads(ln)["n"] == [0, 0, 0] for ln in lines)


def test_sample_scattershot_smoke(shallow_lossless, capsys):
    code = main([
        "sample", "--circuit", shallow_lossless, "--seed", "19", "--samples", "5",
        "--mode", "scattershot", "--herald-lambda", "0.15", "--photons", "1",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5


def test_scattershot_is_planned_on_the_mean_herald_photon_number(tmp_path):
    """The one-photon pattern alone would pass N * mu**2 = 0.0576 <= eps = 0.06, but the
    heralds average M * lam / (1 + lam) = 3.43 photons, so the bound is 0.198 and every
    row comes from the exact MPS source; each mode's mean is p * mu (A = sqrt(mu) * U)."""
    out = tmp_path / "s.jsonl"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "circuit": {"brickwork": {"modes": 12, "depth": 4, "tau": 0.7, "seed": 3}},
        "photons": 1, "mode": "scattershot", "herald_lambda": 0.4, "eps": 0.06,
        "samples": 2000, "seed": 1, "out": str(out)}))
    assert main(["sample", "--config", str(cfg)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 2000 and {r["regime"] for r in rows} == {"mps"}
    meta = json.loads(Path(str(out) + ".meta.json").read_text())
    p, mu = 0.4 / 1.4, 0.7**4
    assert meta["regime"] == "mps" and meta["photons"] == pytest.approx(12 * p)
    assert meta["thresholds"]["surrogate_error"] == pytest.approx(12 * p * mu**2)
    counts = np.array([r["n"] for r in rows])
    assert (np.abs(counts.mean(axis=0) - p * mu) <= 5.0 * counts.std(axis=0) / 2000**0.5).all()


def test_sample_scattershot_builds_transfer_matrix_once(deep_lossy, monkeypatch, capsys):
    calls = []
    original = lossyboson.circuit.transfer_matrix

    def counting(circuit, *args):
        calls.append(circuit)
        return original(circuit, *args)

    monkeypatch.setattr(lossyboson.circuit, "transfer_matrix", counting)
    code = main([
        "sample", "--circuit", deep_lossy, "--seed", "31", "--samples", "50",
        "--mode", "scattershot", "--herald-lambda", "0.3", "--photons", "2",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 50
    assert {json.loads(ln)["regime"] for ln in lines} == {"thermal"}
    assert len(calls) == 1


def test_sample_brickwork_does_not_serialise_circuit(tmp_path, monkeypatch):
    calls = []
    original = lossyboson.circuit.circuit_to_json

    def counting(circuit):
        calls.append(circuit)
        return original(circuit)

    monkeypatch.setattr(lossyboson.circuit, "circuit_to_json", counting)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "circuit": {"brickwork": {"modes": 6, "depth": 40, "tau": 0.9, "seed": 2}},
        "photons": 2, "samples": 5, "seed": 1, "out": str(tmp_path / "s.jsonl"),
    }))
    assert main(["sample", "--config", str(cfg)]) == 0
    assert len(json.loads((tmp_path / "s.jsonl.meta.json").read_text())["config_hash"]) == 64
    assert calls == []


def _config_hash_of(tmp_path, settings):
    cfg, out = tmp_path / "hash.json", tmp_path / "hash.jsonl"
    cfg.write_text(json.dumps({**settings, "photons": 2, "samples": 3, "seed": 4,
                               "out": str(out)}))
    assert main(["sample", "--config", str(cfg)]) == 0
    return json.loads((tmp_path / "hash.jsonl.meta.json").read_text())["config_hash"]


def test_config_hash_tracks_circuit_file_bytes_and_brickwork_seed(shallow_lossy, tmp_path):
    path = Path(shallow_lossy)
    before = _config_hash_of(tmp_path, {"circuit": shallow_lossy})
    assert _config_hash_of(tmp_path, {"circuit": shallow_lossy}) == before
    text = path.read_text()
    path.write_text(text.replace('"modes": 4', '"modes":  4', 1))  # one byte, same circuit
    assert _config_hash_of(tmp_path, {"circuit": shallow_lossy}) != before
    seeds = [_config_hash_of(tmp_path, {"circuit": {"brickwork": {
        "modes": 4, "depth": 2, "tau": 0.8, "seed": seed}}}) for seed in (2, 2, 3)]
    assert seeds[0] == seeds[1] != seeds[2]


def _format_rows(rows, regime, fmt):
    """Everything ``_write_rows`` writes for ``rows``, one write per block."""
    out = io.StringIO()
    _write_rows(out, rows, regime, fmt)
    return out.getvalue()


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_format_rows_matches_json_dumps(fmt):
    rows = np.array([[0, 3, 12], [1, 0, 0]])
    if fmt == "jsonl":
        expected = "".join(json.dumps({"n": r, "regime": "mps"}, sort_keys=True,
                                      separators=(",", ":")) + "\n" for r in rows.tolist())
    else:
        expected = "0,3,12\n1,0,0\n"
    assert _format_rows(rows, "mps", fmt) == expected
    assert _format_rows(rows[:0], "mps", fmt) == ""


def _per_row_format(rows, regime, fmt):
    """The row formatter as it was before blocks: one string join per row."""
    head, tail = ("", "\n") if fmt == "csv" else (
        '{"n":[', '],"regime":' + json.dumps(regime) + "}\n")
    return "".join([head + ",".join(map(str, r.tolist())) + tail for r in rows])


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("modes", [1, 8, 200])
def test_format_rows_bytes_match_per_row_formatter(fmt, modes):
    # a block holds FORMAT_BLOCK byte slots of rows sized for the widest count (1003)
    widest = _per_row_format(np.full((1, modes), 1003), "thermal", fmt)
    step = max(1, cli.FORMAT_BLOCK // len(widest))
    counts = make_stream(modes).integers(0, 10, (5 * step + 3, modes))
    # block widths 1, 2, 2, 3, 4: 9 next to 10 and 99 next to 100 across block ends
    counts[step - 1, -1], counts[step, 0] = 9, 10
    counts[3 * step - 1, -1], counts[3 * step, 0] = 99, 100
    counts[4 * step, -1] = 1003
    lines = _per_row_format(counts, "thermal", fmt).splitlines(keepends=True)
    for size in (0, 1, 2, step - 1, step, step + 1, 3 * step, 4 * step + 1, 5 * step + 3):
        assert _format_rows(counts[:size], "thermal", fmt) == "".join(lines[:size])


@pytest.mark.parametrize("mode", ["thermal", "oracle", "mps", "scattershot"])
def test_sample_one_row_over_two_workers_writes_one_row(mode, tmp_path):
    """The second stream draws no rows; the writer must add nothing for it.
    Scattershot at tau = 0.9 draws from its MPS source (N * mu**2 > eps)."""
    out = tmp_path / "one.jsonl"
    cfg = tmp_path / "cfg.json"
    tau, tag = (0.9, "mps") if mode == "scattershot" else (0.3, mode)
    cfg.write_text(json.dumps({
        "circuit": {"brickwork": {"modes": 4, "depth": 3, "tau": tau, "seed": 1}},
        "photons": 2, "mode": mode, "samples": 1, "workers": 2, "seed": 9, "out": str(out)}))
    assert main(["sample", "--config", str(cfg)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["regime"] == tag
    assert len(json.loads(lines[0])["n"]) == 4


# Sample SHA-256 of three small MPS runs and of thermal, scattershot and oracle
# runs, recorded when random_brickwork began to draw each coupler in its own Haar
# parameters (every brickwork of a given seed changed then).  scattershot_light_cone's
# circuit is too shallow to connect every pair of modes, so A / sqrt(mu_max) holds
# exact zeros (see test_light_cone_pin_draws_through_exact_zeros), and a Poisson(0)
# draw takes no random numbers.  A change to these bytes must be deliberate and
# recorded.
MIXED_LOSS = "mixed"  # stands for _mixed_loss(tmp_path, 0.5, 0.4): mu_max <= 0.125
MPS_SAMPLE_SHA256 = {
    "output_side": ({}, "ed7afee6ad098247600134b86366ee16b82e80b7fe06b32151b9e8d29ef74296"),
    "input_side": ({"circuit": {"brickwork": {"modes": 8, "depth": 2, "tau": 0.5, "seed": 5}},
                    "photons": 4, "samples": 20},
                   "9191eb0ca4b740d88ca45141c06567603ae5eeeb13a297628c7ae3dbf14d7709"),
    "three_workers": ({"workers": 3},
                      "af5178490fb52d82d424cc1606315bc7959cb17bd3c5baaeb01151c76eb1f1bd"),
    "thermal_mixed_loss": ({"circuit": MIXED_LOSS, "mode": "thermal"},
                           "7b57e1388257cf3339136ef60e56badd53b56becd2e511cecf3983bb413d75e2"),
    "scattershot": ({"circuit": {"brickwork": {"modes": 8, "depth": 8, "tau": 0.75, "seed": 5}},
                     "mode": "scattershot", "herald_lambda": 0.3},
                    "cd47cb996deb1de8506737049fec22aec9c268738834559b27a803521bc8c9f0"),
    "scattershot_light_cone": ({"circuit": {"brickwork": {"modes": 8, "depth": 3, "tau": 0.5,
                                                          "seed": 5}},
                                "mode": "scattershot", "herald_lambda": 0.3},
                               "516ba809129cc9e96309ebd7e7fcd200fc4a975e64ab8fbaf0a4aeaa1ac96fde"),
    "oracle": ({"mode": "oracle"},
               "ddab519788c4b80e3110362f0a7130ecd3f7152d7c7fb02799870bb32524ccc7"),
}


@pytest.mark.parametrize("case", sorted(MPS_SAMPLE_SHA256))
def test_mps_sample_bytes_are_pinned(case, tmp_path):
    """301 rows of 3 photons at mu = 0.81 are thinned at the output, 20 rows of 4
    photons at mu = 0.25 at the input.  The thermal, scattershot and oracle cases
    pin the other modes' bytes."""
    settings, digest = MPS_SAMPLE_SHA256[case]
    if settings.get("circuit") == MIXED_LOSS:
        settings = {**settings, "circuit": _mixed_loss(tmp_path, 0.5, 0.4)}
    out = tmp_path / "s.jsonl"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "circuit": {"brickwork": {"modes": 8, "depth": 2, "tau": 0.9, "seed": 5}},
        "photons": 3, "mode": "mps", "samples": 301, "seed": 4, "out": str(out), **settings}))
    assert main(["sample", "--config", str(cfg)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_light_cone_pin_draws_through_exact_zeros():
    """The light-cone pin's A is exactly zero wherever its gate list connects no input
    to the output, and nonzero elsewhere."""
    c = random_brickwork(8, 3, 0.5, make_stream(5))
    reach = np.eye(8, dtype=bool)  # reach[i, j]: input j can reach output i
    for k in c.gate_mode.tolist():  # gates are listed layer by layer
        reach[k] = reach[k + 1] = reach[k] | reach[k + 1]
    a = transfer_matrix(c)
    assert (~reach).any() and np.array_equal(a == 0, ~reach)


def _mixed_loss(tmp_path, hi, lo):
    """4-mode, 3-layer brickwork at transmission hi, first coupler of each layer at lo."""
    doc = json.loads(circuit_to_json(random_brickwork(4, 3, hi, make_stream(9))))
    for layer in doc["layers"]:
        layer["couplers"][0]["tau"] = lo
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    assert circuit_from_json(path.read_text()).uniform_mu() is None
    return str(path)


def test_layer_uniform_loss_samples_under_auto(tmp_path, capsys):
    """Layers at 0.95, 0.9, 0.85 and 0.8, each shared by its gates and idle paths,
    make uniform loss mu = 0.5814: auto takes MPS and plan reports mu**(1/4)."""
    c = random_brickwork(8, 4, 1.0, make_stream(2))
    taus = np.array([0.95, 0.9, 0.85, 0.8])
    path = tmp_path / "layers.json"
    path.write_text(circuit_to_json(dataclasses.replace(c, tau=taus[c.gate_layer()],
                                                        idle_tau=taus)))
    mu = circuit_from_json(path.read_text()).uniform_mu()
    assert mu == pytest.approx(0.5814, abs=1e-4)
    assert main(["plan", "--circuit", str(path), "--photons", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["regime"] == "mps" and report["mu_effective"] == mu
    assert report["tau"] == mu ** 0.25 and report["depth_threshold_exponential"] > 0
    for mode in ("auto", "mps", "oracle"):
        out = tmp_path / f"{mode}.jsonl"
        assert main(["sample", "--circuit", str(path), "--photons", "4", "--seed", "1",
                     "--samples", "20", "--mode", mode, "--out", str(out)]) == 0
        regimes = {json.loads(line)["regime"] for line in out.read_text().splitlines()}
        assert regimes == {"oracle" if mode == "oracle" else "mps"}


@pytest.mark.parametrize("hi,lo", [(0.99, 0.98), (0.7, 0.6)])
def test_auto_mixed_loss_outside_thermal_bound_is_model_violation(tmp_path, capsys, hi, lo):
    code = main([
        "sample", "--circuit", _mixed_loss(tmp_path, hi, lo), "--photons", "3",
        "--seed", "1", "--samples", "20",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "model violation" in captured.err and "N*mu_max^2" in captured.err
    assert "eps = 0.05" in captured.err and "mixed loss" in captured.err


@pytest.mark.parametrize("hi,lo", [(0.99, 0.98), (0.7, 0.6)])
def test_plan_mixed_loss_outside_thermal_bound_is_model_violation(tmp_path, capsys, hi, lo):
    code = main(["plan", "--circuit", _mixed_loss(tmp_path, hi, lo), "--photons", "3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "N*mu_max^2" in captured.err and "eps = 0.05" in captured.err


@pytest.mark.parametrize("mode", ["mps", "oracle"])
def test_exact_modes_on_mixed_loss_are_input_errors(tmp_path, capsys, mode):
    out = tmp_path / "x.jsonl"
    code = main(["sample", "--circuit", _mixed_loss(tmp_path, 0.5, 0.4), "--photons", "2",
                 "--seed", "1", "--samples", "5", "--mode", mode, "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"input error: {mode} sampling needs uniform loss" in captured.err
    assert "transmissions are [0.4, 0.5]" in captured.err
    assert list(tmp_path.iterdir()) == [tmp_path / "mixed.json"]


def test_plan_and_auto_agree_on_mixed_loss_inside_bound(tmp_path, capsys):
    mixed = _mixed_loss(tmp_path, 0.3, 0.2)
    assert main(["plan", "--circuit", mixed, "--photons", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regime"] == "thermal" and doc["thermal_valid"] is True
    assert doc["tau"] is None and doc["depth_threshold_exponential"] is None
    assert doc["mu_effective"] <= 0.3**3 + 1e-12
    out = tmp_path / "m.jsonl"
    assert main(["sample", "--circuit", mixed, "--photons", "3", "--seed", "2",
                 "--samples", "5", "--out", str(out)]) == 0
    assert {json.loads(ln)["regime"] for ln in out.read_text().splitlines()} == {"thermal"}
    meta = json.loads((tmp_path / "m.jsonl.meta.json").read_text())
    assert meta["thresholds"] == {"mu_effective": doc["mu_effective"],
                                  "surrogate_error": doc["surrogate_error"]}


def test_vacuum_pattern_under_auto_samples_vacuum(tmp_path, shallow_lossless, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pattern": [0, 0, 0, 0]}))
    argv = ["--config", str(cfg), "--circuit", shallow_lossless]
    assert main(["plan", *argv]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regime"] == "thermal" and doc["photons"] == 0
    assert main(["sample", *argv, "--seed", "1", "--samples", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(ln) for ln in lines] == [{"n": [0, 0, 0, 0], "regime": "thermal"}] * 4


def test_forced_thermal_outside_bound_warns_and_samples(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([
            "sample", "--circuit", _mixed_loss(tmp_path, 0.7, 0.6), "--photons", "3",
            "--seed", "1", "--samples", "20", "--mode", "thermal",
        ])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 20
    assert len(caught) == 1 and "N*mu_max^2" in str(caught[0].message)


def test_sample_oracle_lossy_pattern_matches_exact_law(shallow_lossy, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pattern": [0, 1, 0, 1]}))
    out = tmp_path / "o.jsonl"
    n = 4000
    code = main([
        "sample", "--config", str(cfg), "--circuit", shallow_lossy, "--seed", "37",
        "--samples", str(n), "--mode", "oracle", "--out", str(out),
    ])
    assert code == 0
    counts = {}
    for ln in out.read_text().splitlines():
        key = tuple(json.loads(ln)["n"])
        counts[key] = counts.get(key, 0) + 1
    u = transfer_matrix(random_brickwork(4, 2, 0.8, make_stream(2)).lossless_copy())
    exact = lossy_exact_distribution(u[:, [1, 3, 0, 2]], 0.8**2, (1, 1, 0, 0)).as_dict()
    assert set(counts) <= set(exact)
    for outcome, p in exact.items():
        sigma = np.sqrt(n * p * (1.0 - p))
        assert abs(counts.get(outcome, 0) - n * p) <= 3.0 * sigma + 1e-9


def test_sample_explicit_pattern(tmp_path, shallow_lossless, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pattern": [0, 1, 0, 1]}))
    code = main([
        "sample", "--config", str(cfg), "--circuit", shallow_lossless,
        "--seed", "23", "--samples", "3", "--mode", "mps",
    ])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


# ---------------------------------------------------------------------------
# configuration precedence and exit codes
# ---------------------------------------------------------------------------


def test_flags_override_config(tmp_path, shallow_lossless, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 50, "photons": 1}))
    code = main([
        "sample", "--config", str(cfg), "--circuit", shallow_lossless,
        "--seed", "1", "--samples", "3",
    ])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_env_overrides_config(tmp_path, shallow_lossless, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 50, "photons": 1}))
    monkeypatch.setenv("LOSSYBOSON_SAMPLES", "2")
    code = main([
        "sample", "--config", str(cfg), "--circuit", shallow_lossless, "--seed", "1",
    ])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_missing_command_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_circuit_is_usage_error(capsys):
    assert main(["sample", "--photons", "1"]) == 1


def test_bad_config_file_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["plan", "--config", str(cfg)]) == 1


def test_unknown_mode_is_usage_error(tmp_path, shallow_lossless, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "bogus", "photons": 1}))
    argv = ["sample", "--circuit", shallow_lossless, "--samples", "2"]
    assert main(argv + ["--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "bogus" in err and "scattershot" in err
    monkeypatch.setenv("LOSSYBOSON_MODE", "thermall")
    assert main(argv + ["--photons", "1"]) == 1
    assert "thermall" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [{"density_gamma": 5}, {"density_gamma": 0},
                                 {"density_k": 0}, {"density_k": -1.5}, {"density_k": "x"}])
def test_density_settings_are_checked_for_plan_and_sample(tmp_path, capsys, bad):
    circuit = {"brickwork": {"modes": 4, "depth": 30, "tau": 0.7, "seed": 1}}
    cfg = tmp_path / "cfg.json"
    for settings, code in (({}, 0), (bad, 1)):
        cfg.write_text(json.dumps({"circuit": circuit, "photons": 2, "samples": 3, **settings}))
        assert main(["plan", "--config", str(cfg)]) == code
        assert main(["sample", "--config", str(cfg)]) == code
        err = capsys.readouterr().err
        assert ("usage error: density" in err) == (code == 1)


def test_unknown_format_is_rejected_before_circuit_build(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "xml", "photons": 1}))
    missing = str(tmp_path / "missing.json")
    assert main(["sample", "--config", str(cfg), "--circuit", missing]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "xml" in err and "jsonl, csv" in err


def test_amplifying_circuit_is_model_violation(tmp_path, shallow_lossy, capsys):
    doc = json.loads(Path(shallow_lossy).read_text())
    doc["layers"][0]["couplers"][0]["tau"] = 1.5
    bad = tmp_path / "amp.json"
    bad.write_text(json.dumps(doc))
    code = main([
        "sample", "--circuit", str(bad), "--photons", "1", "--seed", "1",
        "--samples", "1", "--mode", "thermal",
    ])
    assert code == 2
    assert "model violation" in capsys.readouterr().err


NON_FINITE = [
    ("tau", lambda doc: doc["layers"][0]["couplers"][0].update(tau=float("nan"))),
    ("theta", lambda doc: doc["layers"][1]["couplers"][0].update(theta=float("nan"))),
    ("phi", lambda doc: doc["layers"][0]["couplers"][1].update(phi=-float("inf"))),
    ("phases", lambda doc: doc["layers"][1]["phases"].__setitem__(2, float("inf"))),
    ("idle_tau", lambda doc: doc["layers"][1].update(idle_tau=float("nan"))),
]


@pytest.mark.parametrize("field,spoil", NON_FINITE, ids=[f for f, _ in NON_FINITE])
def test_non_finite_circuit_value_is_usage_error_naming_the_field(tmp_path, shallow_lossy,
                                                                  capsys, field, spoil):
    doc = json.loads(Path(shallow_lossy).read_text())
    spoil(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "s.jsonl"
    runs = [["plan"]] + [["sample", "--mode", mode] for mode in
                         ("auto", "thermal", "mps", "oracle", "scattershot")]
    for run in runs:
        assert main([*run, "--circuit", str(bad), "--photons", "1", "--seed", "1",
                     "--samples", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"circuit {field}[" in err and "must be finite" in err and "SVD" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--eps", "nan"], ["--eps", "inf"], ["--eps", "0"],
                                   ["--eps", "-1"], ["--max-bond", "0"], ["--max-bond", "-2"]])
def test_eps_and_bond_cap_are_checked_for_plan_and_sample(shallow_lossy, tmp_path, capsys,
                                                          flags):
    out = tmp_path / "s.jsonl"
    message = {"--eps": f"eps must be finite and > 0, got {float(flags[1])}",
               "--max-bond": f'"max_bond" must be >= 1, got {flags[1]}'}[flags[0]]
    for command in ("plan", "sample"):
        assert main([command, "--circuit", shallow_lossy, "--photons", "2", "--samples", "3",
                     "--out", str(out), *flags]) == 1
        assert f"usage error: {message}" in capsys.readouterr().err
    assert not out.exists()


MALFORMED = {  # case -> ("circuit" and its spoiler, or "config" and its document; error line)
    "layers": ("circuit", lambda doc: doc.update(layers=5),
               'input error: circuit "layers" must be a list, got 5'),
    "couplers": ("circuit", lambda doc: doc["layers"][0].update(couplers=5),
                 'input error: circuit layer 0 "couplers" must be a list, got 5'),
    "phases": ("circuit", lambda doc: doc["layers"][1].update(phases=5),
               'input error: circuit layer 1 "phases" must be a list, got 5'),
    "idle_tau": ("circuit", lambda doc: doc["layers"][0].update(idle_tau=None),
                 'input error: circuit layer 0 "idle_tau" must be a number, got None'),
    "brickwork": ("config", {"circuit": {"brickwork": 5}, "photons": 1},
                  "usage error: brickwork spec must be an object of numbers, got 5"),
    "algebraic": ("config", {"modes": 4, "depth": 2, "tau": 0.8, "photons": 1, "algebraic": 3},
                  "usage error: algebraic spec must be an object of numbers, got 3"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_circuit_or_config_shape_is_an_error_line(shallow_lossy, tmp_path, case):
    kind, doc, line = MALFORMED[case]
    path = tmp_path / "bad.json"
    if kind == "circuit":
        spoiled = json.loads(Path(shallow_lossy).read_text())
        doc(spoiled)
        path.write_text(json.dumps(spoiled))
        runs = [["sample", "--circuit", str(path), "--photons", "1"],
                ["plan", "--circuit", str(path), "--photons", "1"]]
    else:
        path.write_text(json.dumps(doc))
        runs = [["plan", "--config", str(path)]] + (
            [["sample", "--config", str(path)]] if case == "brickwork" else [])
    for argv in runs:
        proc = _cli_process(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", line + "\n"), argv


def test_unwritable_out_is_usage_error(shallow_lossy, tmp_path, capsys):
    argv = ["sample", "--circuit", shallow_lossy, "--photons", "2", "--samples", "3"]
    out = tmp_path / "missing" / "s.jsonl"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"usage error: cannot write {out}: ")
    out = tmp_path / "s.jsonl"
    Path(f"{out}.meta.json").mkdir()
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"usage error: cannot write {out}.meta.json: ")


def test_tiny_bond_cap_is_capacity_error(shallow_lossless, tmp_path, capsys):
    argv = ["sample", "--circuit", shallow_lossless, "--photons", "2", "--seed", "1",
            "--samples", "1", "--mode", "mps", "--max-bond", "1"]
    for out in ([], ["--out", str(tmp_path / "s.jsonl")]):
        assert main(argv + out) == 3
        captured = capsys.readouterr()
        assert "capacity" in captured.err and captured.out == ""
    assert not (tmp_path / "s.jsonl").exists()  # the first draw failed, so no file


def test_cli_import_leaves_scipy_stats_unloaded():
    """scipy is a test dependency; importing it would cost most of the CLI's import time."""
    src = os.path.dirname(os.path.dirname(lossyboson.__file__))
    code = "import sys, lossyboson.cli; assert 'scipy.stats' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


def test_sampling_every_regime_leaves_numpy_ma_and_scipy_unloaded(tmp_path):
    """Both cost import time on every call: scipy.stats about 0.85 s, numpy.ma (which
    the first np.unique loads) about 14 ms, and sample needs neither."""
    src = os.path.dirname(os.path.dirname(lossyboson.__file__))
    deep = {"brickwork": {"modes": 6, "depth": 30, "tau": 0.8, "seed": 1}}
    shallow = {"brickwork": {"modes": 4, "depth": 2, "tau": 0.9, "seed": 1}}
    runs = [(deep, "thermal"), (shallow, "mps"), (shallow, "oracle"), (deep, "scattershot")]
    code = ["import json, sys", "from lossyboson.cli import main"]
    for i, (circuit, mode) in enumerate(runs):
        cfg = {"circuit": circuit, "mode": mode, "photons": 2, "samples": 20, "seed": 3,
               "out": str(tmp_path / f"{mode}.jsonl")}
        code.append(f"assert main(['sample', '--config', {str(tmp_path / f'{i}.json')!r}]) == 0")
        (tmp_path / f"{i}.json").write_text(json.dumps(cfg))
    code.append("bad = [m for m in sys.modules if m == 'numpy.ma' or m.split('.')[0] == 'scipy']")
    code.append("assert not bad, bad")
    subprocess.run([sys.executable, "-c", "\n".join(code)], check=True,
                   env={**os.environ, "PYTHONPATH": src})
    for _, mode in runs:
        assert len((tmp_path / f"{mode}.jsonl").read_text().splitlines()) == 20


# ---------------------------------------------------------------------------
# process entry
# ---------------------------------------------------------------------------


def _cli_env():
    return {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(lossyboson.__file__))}


def _cli_process(*args):
    """``python -m lossyboson.cli ARGS`` run to completion in a fresh process."""
    return subprocess.run([sys.executable, "-m", "lossyboson.cli", *args], capture_output=True,
                          text=True, env=_cli_env(), timeout=120)


@pytest.mark.parametrize("mode", ["thermal", "mps", "oracle", "scattershot"])
def test_process_writes_the_bytes_of_in_process_main(mode, tmp_path):
    deep = {"brickwork": {"modes": 6, "depth": 30, "tau": 0.8, "seed": 1}}
    shallow = {"brickwork": {"modes": 4, "depth": 2, "tau": 0.9, "seed": 1}}
    outputs = []
    for side in ("main", "process"):
        out = tmp_path / f"{side}.jsonl"
        cfg = tmp_path / f"{side}.json"
        cfg.write_text(json.dumps({"circuit": deep if mode in ("thermal", "scattershot")
                                   else shallow, "mode": mode, "photons": 2, "samples": 50,
                                   "seed": 3, "out": str(out)}))
        argv = ["sample", "--config", str(cfg)]
        if side == "main":
            assert main(argv) == 0
        else:
            proc = _cli_process(*argv)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        outputs.append((out.read_bytes(), Path(f"{out}.meta.json").read_bytes()))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][0].splitlines()) == 50


@pytest.mark.parametrize("code,prefix", [(1, "usage error:"), (2, "model violation:"),
                                         (3, "capacity exceeded:")])
def test_process_exit_codes(code, prefix, shallow_lossless, tmp_path):
    """A bad flag, auto on mixed loss outside the thermal bound, and a bond cap of 1."""
    extra = {1: ["--no-such-flag"],
             2: ["--circuit", _mixed_loss(tmp_path, 0.99, 0.98)],
             3: ["--circuit", shallow_lossless, "--mode", "mps", "--max-bond", "1"]}[code]
    proc = _cli_process("sample", "--photons", "2", "--seed", "1", "--samples", "20", *extra)
    assert proc.returncode == code and proc.stdout == ""
    assert proc.stderr.startswith(prefix) and len(proc.stderr.splitlines()) == 1


def test_process_closed_stdout_exits_1_without_traceback(tmp_path):
    """The reader takes one row of about 7 MB of output and closes the pipe."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"circuit": {"brickwork": {"modes": 6, "depth": 3, "tau": 0.9,
                                                         "seed": 1}},
                               "photons": 3, "mode": "mps", "samples": 200_000, "seed": 1}))
    with subprocess.Popen([sys.executable, "-m", "lossyboson.cli", "sample", "--config",
                           str(cfg)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=_cli_env()) as proc:
        assert json.loads(proc.stdout.readline())["regime"] == "mps"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "Exception ignored" not in err


def test_process_forced_thermal_warns_on_one_line(tmp_path):
    proc = _cli_process("sample", "--circuit", _mixed_loss(tmp_path, 0.7, 0.6), "--photons",
                        "3", "--seed", "1", "--samples", "20", "--mode", "thermal")
    assert proc.returncode == 0 and len(proc.stdout.splitlines()) == 20
    [line] = proc.stderr.splitlines()
    assert line.startswith("warning: N*mu_max^2 = ") and line.endswith("mode was requested")


def test_script_target_is_the_function_the_main_block_calls():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["lossyboson"]
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    [block] = [node for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    [call] = block.body
    assert target == f"lossyboson.cli:{call.value.func.id}"
    assert callable(getattr(cli, call.value.func.id))


# ---------------------------------------------------------------------------
# validate and stats
# ---------------------------------------------------------------------------


ROW_CHECKS = ("oracle_rows_match_lossy_law", "mps_rows_match_lossy_law",
              "auto_rows_match_thermal_law", "auto_rows_near_fock_law")


def test_validate_battery_passes(capsys):
    code = main(["validate", "--seed", "4"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_pass"] is True
    checks = {c["name"]: c for c in doc["checks"]}
    assert set(checks) == {"brickwork_uniform_loss", "lossless_transfer_unitary",
                           "mps_matches_oracle", *ROW_CHECKS}
    for name in ROW_CHECKS:
        assert checks[name]["rows"] == 20000 and checks[name]["alpha"] == 1e-6
        assert 0.0 < checks[name]["measured"] <= checks[name]["bound"] < 0.07
    assert checks["auto_rows_match_thermal_law"]["regime"] == "thermal"


@pytest.mark.parametrize("source, spoil, failing", [
    ("MPSSource", lambda source: setattr(source, "mu", 0.95 * source.mu),
     {"mps_rows_match_lossy_law"}),
    ("ThermalSource", lambda source: setattr(source, "residual", source.residual[::-1]),
     {"auto_rows_match_thermal_law", "auto_rows_near_fock_law"}),
], ids=["mps-thinning-at-0.95-mu", "thermal-outputs-reversed"])
def test_validate_row_checks_catch_a_wrong_source(monkeypatch, capsys, source, spoil, failing):
    cls = getattr(lossyboson.sampler, source)
    init = cls.__init__

    def spoiled_init(self, *args):
        init(self, *args)
        spoil(self)

    monkeypatch.setattr(cls, "__init__", spoiled_init)
    assert main(["validate"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_pass"] is False
    assert {c["name"] for c in doc["checks"] if not c["pass"]} == failing


@pytest.mark.parametrize("with_circuit", [False, True], ids=["battery", "circuit"])
def test_validate_runs_without_scipy(shallow_lossy, with_circuit):
    code = ("import sys; sys.modules['scipy'] = None; from lossyboson.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    argv = ["validate"] + (["--circuit", shallow_lossy] if with_circuit else [])
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=_cli_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_pass"] is True


def test_validate_includes_circuit_checks(shallow_lossy, capsys):
    code = main(["validate", "--circuit", shallow_lossy, "--seed", "4"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    names = {c["name"] for c in doc["checks"]}
    assert "circuit_passive" in names and "circuit_roundtrip_bit_exact" in names


def test_validate_skips_oversized_oracle_check(capsys):
    code = main(["validate", "--seed", "4", "--photons", "20"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    skipped = [c for c in doc["checks"] if "skipped" in c]
    assert any(c["name"] == "mps_matches_oracle" for c in skipped)


@pytest.mark.parametrize("photons", [5, 8])
def test_validate_oracle_check_grows_with_photons(capsys, photons):
    """The MPS-vs-oracle check runs on max(4, N) modes, so 5-8 photons fit."""
    assert main(["validate", "--seed", "4", "--photons", str(photons)]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["mps_matches_oracle"]["pass"] is True


def test_validate_rejects_negative_photons(capsys):
    assert main(["validate", "--photons", "-1"]) == 1
    assert 'usage error: "photons" must be >= 1, got -1' in capsys.readouterr().err


def test_validate_zero_photons_is_a_usage_error_like_plan_and_sample(capsys):
    assert main(["validate", "--photons", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and 'usage error: "photons" must be >= 1, got 0' in captured.err


def test_stats_summarizes_samples(shallow_lossless, tmp_path, capsys):
    out = tmp_path / "s.jsonl"
    main([
        "sample", "--circuit", shallow_lossless, "--photons", "2",
        "--seed", "31", "--samples", "40", "--out", str(out),
    ])
    capsys.readouterr()
    code = main(["stats", "--in", str(out)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["samples"] == 40 and doc["modes"] == 4
    assert len(doc["mean_counts"]) == 4
    assert sum(doc["total_photon_histogram"].values()) == 40


def test_stats_tvd_against_reference(shallow_lossless, tmp_path, capsys):
    out = tmp_path / "s.jsonl"
    main([
        "sample", "--circuit", shallow_lossless, "--photons", "2",
        "--seed", "37", "--samples", "3000", "--mode", "oracle", "--out", str(out),
    ])
    capsys.readouterr()
    u = transfer_matrix(random_brickwork(4, 2, 1.0, make_stream(1)))
    exact = fock_output_distribution(u, (1, 1, 0, 0))
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps({
        "outcomes": exact.outcomes.tolist(),
        "weights": list(exact.weights),
    }))
    code = main(["stats", "--in", str(out), "--reference", str(ref)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tvd_to_reference"] < 0.06


def test_stats_missing_file_is_usage_error(capsys):
    assert main(["stats", "--in", "/nonexistent/file.jsonl"]) == 1


def test_stats_zero_samples_give_zero_means(tmp_path, capsys):
    path = tmp_path / "zeros.csv"
    path.write_text("0,0,0\n" * 8)
    code = main(["stats", "--in", str(path)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mean_counts"] == [0.0, 0.0, 0.0]
    assert doc["total_photon_histogram"] == {"0": 8}


def test_stats_thermal_single_mode_mean(tmp_path, capsys):
    """One thermal mode at lam=0.2 has mean count lam/(1-lam) = 0.25."""
    circuit = tmp_path / "one.json"
    circuit.write_text(circuit_to_json(random_brickwork(1, 1, 0.2, make_stream(44))))
    out = tmp_path / "one.jsonl"
    main([
        "sample", "--circuit", circuit.as_posix(), "--photons", "1",
        "--seed", "45", "--samples", "4000", "--mode", "thermal",
        "--out", str(out),
    ])
    capsys.readouterr()
    code = main(["stats", "--in", str(out)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    # 3 sigma of the sample mean: thermal variance lam/(1-lam)^2 = 0.3125
    assert doc["mean_counts"][0] == pytest.approx(0.25, abs=3 * (0.3125 / 4000) ** 0.5)


def test_stats_reference_equal_to_own_law_gives_zero_tvd(tmp_path, capsys):
    path = tmp_path / "s.csv"
    path.write_text("1,0\n1,0\n0,1\n1,0\n")
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps({
        "outcomes": [[1, 0], [0, 1]],
        "weights": [0.75, 0.25],
    }))
    code = main(["stats", "--in", str(path), "--reference", str(ref)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tvd_to_reference"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("outcomes", [[[1, 0], [0, 1]], [[1, 0], [0, 1, 0]],
                                      [[1, -1, 1], [0, 1, 0]], [[1.9, 0, 0], [0, 1, 0]],
                                      [[True, 0, 0], [0, 1, 0]]],
                         ids=["wrong-width", "ragged", "negative", "fractional", "boolean"])
def test_stats_rejects_malformed_reference(outcomes, tmp_path, capsys):
    path = tmp_path / "s.csv"
    path.write_text("1,0,0\n0,1,0\n")
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps({"outcomes": outcomes, "weights": [0.5, 0.5]}))
    code = main(["stats", "--in", str(path), "--reference", str(ref)])
    assert code == 1
    assert "tvd_to_reference" not in capsys.readouterr().out


def test_stats_parse_error_names_the_line(tmp_path, capsys):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"n":[1,0],"regime":"mps"}\n{"n":[oops\n')
    code = main(["stats", "--in", str(path)])
    assert code == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("name, text", [
    ("s.jsonl", '{"n":[1,0,0]}\n{"n":[1.9,0,0]}\n'),
    ("s.jsonl", '{"n":[1,0,0]}\n{"n":[true,0,0]}\n'),
    ("s.jsonl", '{"n":[1,0,0]}\n{"n":[-1,2,0]}\n'),
    ("s.csv", "1,0,0\n-1,2,0\n"),
], ids=["jsonl-fractional", "jsonl-boolean", "jsonl-negative", "csv-negative"])
def test_stats_rejects_non_integer_counts(name, text, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(text)
    assert main(["stats", "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{path} line 2" in captured.err


def test_stats_detects_jsonl_whatever_the_format_setting(tmp_path, capsys):
    path = tmp_path / "x.jsonl"
    path.write_text('{"n":[1,0],"regime":"mps"}\n{"n":[0,1],"regime":"mps"}\n')
    assert main(["stats", "--format", "csv", "--in", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["regimes"] == ["mps"]


@pytest.mark.parametrize("modes, field, value", [
    (3, "mode", 1.5), (3, "mode", True), (1, "modes", True),
], ids=["mode-fractional", "mode-boolean", "modes-boolean"])
def test_circuit_file_with_non_integer_mode_is_input_error(modes, field, value, tmp_path, capsys):
    doc = json.loads(circuit_to_json(random_brickwork(modes, 1, 1.0, make_stream(6))))
    if field == "modes":
        doc["modes"] = value
    else:
        doc["layers"][0]["couplers"][0]["mode"] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["sample", "--circuit", str(path), "--photons", "1", "--samples", "2"])
    assert code == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command, entry", [
    ("sample", {"pattern": [1.5, 0, 1, 0]}), ("sample", {"pattern": [True, 0, 1, 0]}),
    ("sample", {"pattern": [-1, 0, 1, 0]}), ("sample", {"photons": 2.7}),
    ("sample", {"photons": True}), ("validate", {"photons": 2.7}),
], ids=["pattern-fractional", "pattern-boolean", "pattern-negative", "photons-fractional",
        "photons-boolean", "validate-photons-fractional"])
def test_config_with_non_integer_photon_counts_is_input_error(command, entry, shallow_lossless,
                                                               tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"circuit": shallow_lossless, "mode": "mps", **entry}))
    assert main([command, "--config", str(cfg), "--samples", "2"]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command, where, key, value", [
    ("sample", "config", "samples", 2.5), ("sample", "config", "workers", 1.5),
    ("sample", "config", "max_bond", 8.0), ("sample", "config", "seed", 2.5),
    ("sample", "brickwork", "modes", 4.9), ("sample", "brickwork", "depth", 2.5),
    ("sample", "brickwork", "seed", 1.5), ("plan", "config", "modes", 4.5),
    ("plan", "config", "depth", 2.5),
], ids=["samples", "workers", "max_bond", "seed", "brickwork-modes", "brickwork-depth",
        "brickwork-seed", "plan-modes", "plan-depth"])
def test_config_with_non_integer_setting_is_input_error(command, where, key, value, tmp_path,
                                                        capsys):
    brickwork = {"modes": 4, "depth": 2, "tau": 0.8, "seed": 1}
    doc = ({"modes": 4, "depth": 2, "tau": 0.8, "photons": 2} if command == "plan" else
           {"circuit": {"brickwork": brickwork}, "photons": 2, "mode": "mps", "samples": 2})
    (brickwork if where == "brickwork" else doc)[key] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f'"{key}" must be an integer, got {value}' in captured.err


def test_two_stream_run_never_holds_both_streams_counts(tmp_path, monkeypatch):
    """Each stream's rows are dropped once written: when the second stream draws,
    the first one's array is gone, and the run peaks below 1.5x one stream's counts."""
    drawn = []  # (weak reference to each stream's rows, earlier rows still alive)
    build = cli.build_sampler

    def recording_build(*args, **kwargs):
        sampler = build(*args, **kwargs)

        def draw(rng, size):
            alive = any(ref() is not None for ref, _ in drawn)
            rows = sampler.draw(rng, size)
            drawn.append((weakref.ref(rows), alive))
            return rows

        return dataclasses.replace(sampler, draw=draw)

    monkeypatch.setattr(cli, "build_sampler", recording_build)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "circuit": {"brickwork": {"modes": 60, "depth": 10, "tau": 0.5, "seed": 4}},
        "photons": 10, "mode": "thermal", "samples": 20000, "workers": 2, "seed": 5,
        "format": "csv", "out": str(tmp_path / "rows.csv")}))
    tracemalloc.start()
    try:
        assert main(["sample", "--config", str(cfg)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [alive for _, alive in drawn] == [False, False]
    stream_bytes = 10000 * 60 * 8
    assert peak <= 1.5 * stream_bytes, peak / stream_bytes
