"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lossyboson.circuit
from lossyboson import (
    circuit_to_json,
    fock_output_distribution,
    lossy_exact_distribution,
    make_stream,
    random_brickwork,
    save_circuit,
    transfer_matrix,
)
from lossyboson.cli import _format_rows, main


@pytest.fixture
def shallow_lossless(tmp_path):
    path = tmp_path / "shallow.json"
    save_circuit(random_brickwork(4, 2, 1.0, make_stream(1)), str(path))
    return str(path)


@pytest.fixture
def shallow_lossy(tmp_path):
    path = tmp_path / "lossy.json"
    save_circuit(random_brickwork(4, 2, 0.8, make_stream(2)), str(path))
    return str(path)


@pytest.fixture
def deep_lossy(tmp_path):
    path = tmp_path / "deep.json"
    save_circuit(random_brickwork(4, 30, 0.7, make_stream(3)), str(path))
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
    assert doc["depth_threshold_exponential"] == float("inf")


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
    save_circuit(random_brickwork(3, 1, 0.0, make_stream(8)), str(blocked))
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


def test_sample_scattershot_builds_transfer_matrix_once(deep_lossy, monkeypatch, capsys):
    calls = []
    original = lossyboson.circuit.transfer_matrix

    def counting(circuit):
        calls.append(circuit)
        return original(circuit)

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


def _mixed_loss(tmp_path, hi, lo):
    """4-mode, 3-layer brickwork at transmission hi, first coupler of each layer at lo."""
    doc = json.loads(circuit_to_json(random_brickwork(4, 3, hi, make_stream(9))))
    for layer in doc["layers"]:
        layer["couplers"][0]["tau"] = lo
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    return str(path)


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
    exact = lossy_exact_distribution(u[:, [1, 3, 0, 2]], 0.8**2, 2).as_dict()
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


@pytest.mark.parametrize("flags", [["--eps", "nan"], ["--eps", "inf"], ["--eps", "0"],
                                   ["--eps", "-1"], ["--max-bond", "0"], ["--max-bond", "-2"]])
def test_eps_and_bond_cap_are_checked_for_plan_and_sample(shallow_lossy, tmp_path, capsys,
                                                          flags):
    out = tmp_path / "s.jsonl"
    for command in ("plan", "sample"):
        assert main([command, "--circuit", shallow_lossy, "--photons", "2", "--samples", "3",
                     "--out", str(out), *flags]) == 1
        assert f"usage error: {flags[0][2:].replace('-', '_')}" in capsys.readouterr().err
    assert not out.exists()


def test_tiny_bond_cap_is_capacity_error(shallow_lossless, capsys):
    code = main([
        "sample", "--circuit", shallow_lossless, "--photons", "2", "--seed", "1",
        "--samples", "1", "--mode", "mps", "--max-bond", "1",
    ])
    assert code == 3
    assert "capacity" in capsys.readouterr().err


def test_cli_import_leaves_scipy_stats_unloaded():
    """scipy.stats costs most of the CLI's import time and only validate needs it."""
    src = os.path.dirname(os.path.dirname(lossyboson.__file__))
    code = "import sys, lossyboson.cli; assert 'scipy.stats' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


# ---------------------------------------------------------------------------
# validate and stats
# ---------------------------------------------------------------------------


def test_validate_battery_passes(capsys):
    code = main(["validate", "--seed", "4"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_pass"] is True
    names = {c["name"] for c in doc["checks"]}
    assert "mps_matches_oracle" in names
    assert "chi2_within_budget" in names


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
        "outcomes": [list(o) for o in exact.outcomes],
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
    save_circuit(random_brickwork(1, 1, 0.2, make_stream(44)), str(circuit))
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


def test_stats_parse_error_names_the_line(tmp_path, capsys):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"n":[1,0],"regime":"mps"}\n{"n":[oops\n')
    code = main(["stats", "--in", str(path)])
    assert code == 1
    assert "line 2" in capsys.readouterr().err
