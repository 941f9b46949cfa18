"""Benchmark of `lossyboson sample`: four pinned workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload thermal-deep --seed 1 --seconds 30 --trace 0

Each timed invocation is the real CLI (`python -m lossyboson.cli sample
--config FILE`) in a fresh process with `PYTHONPATH=src` and BLAS pinned to
one thread.  `--trace 0` alternates full invocations (`wall_s`,
`peak_rss_mb`) with one-sample invocations (`setup_s`) for `--seconds`
seconds and reports medians.  `--trace 1` alternates untraced full
invocations with traced ones (`perfbench/traced.py`) and reports the
per-layer metrics listed in BENCHMARK.json.  Every output goes through the gate in
`perfbench/gate.py` outside the timed region, and all outputs of one
workload, seed and sample count must hash the same.  The last line of
standard output is the JSON result; the lines before it are a readable
summary.  Full results and spans go to `perfbench/.out/`.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback

import numpy as np

import gate

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, ".out")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUN_DEADLINE_S = 150.0  # children still running this long after start are killed

# Modes are pinned so that a planner change cannot flip a workload's regime
# and pass as a performance change; the gate checks the regime tag.
WORKLOADS = {
    # The only workload where the circuit layer's one-time build is large
    # (random_brickwork, transfer_matrix, circuit_to_json for the meta hash)
    # and the per-draw thermal path is also large.  mu = tau**D ~ 0.030 is
    # inside both sqrt(eps/N) and sqrt(eps/2N).  Depth 200 rather than 400
    # halves the set-up so that enough invocations fit in one run for steady
    # medians.  Two worker streams, so a parallel-streams change has a
    # workload to show on.
    "thermal-deep": dict(modes=200, depth=200, tau=0.98262, photons=20,
                         mode="thermal", tag="thermal", workers=2, samples=2000),
    # MPS evolution (simulate_circuit over distinct thinned patterns) and the
    # chain-rule draws split the time about evenly, so an evolution change
    # and a batched draw each show here and on no other workload.
    "mps-shallow": dict(modes=14, depth=3, tau=0.9, photons=7,
                        mode="mps", tag="mps", workers=1, samples=3000),
    # Scattershot rebuilds the thermal sampler for most draws, so
    # transfer_matrix dominates: "build once, vary inputs" shows here and not
    # on thermal-deep.  mu ~ 0.010 makes the thermal inner sampler the only
    # sane choice, and the tag stays "thermal".
    "scattershot": dict(modes=30, depth=150, tau=0.97, photons=3, herald_lambda=0.1,
                        mode="scattershot", tag="thermal", workers=1, samples=200),
    # The only workload that exercises oracle and numerics.permanent, plus
    # per-draw rng.choice and formatting; also the desk-scale exactness check.
    "oracle-desk": dict(modes=8, depth=4, tau=0.9, photons=6,
                        mode="oracle", tag="oracle", workers=1, samples=20000),
}


def derive_seed(workload: str, seed: int, purpose: str) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def cli_config(name: str, seed: int, samples: int, out: str) -> dict:
    w = WORKLOADS[name]
    cfg = {
        "circuit": {"brickwork": {"modes": w["modes"], "depth": w["depth"], "tau": w["tau"],
                                  "seed": derive_seed(name, seed, "circuit")}},
        "photons": w["photons"],
        "mode": w["mode"],
        "samples": samples,
        "seed": derive_seed(name, seed, "sample"),
        "workers": w["workers"],
        "format": "jsonl",
        "out": out,
    }
    if "herald_lambda" in w:
        cfg["herald_lambda"] = w["herald_lambda"]
    return cfg


def expectation(name: str, cfg: dict) -> dict:
    """Closed-form bounds for the gate, built from the public transfer_matrix."""
    from lossyboson.circuit import random_brickwork, transfer_matrix
    from lossyboson.rng import make_stream

    w = WORKLOADS[name]
    b = cfg["circuit"]["brickwork"]
    circuit = random_brickwork(b["modes"], b["depth"], b["tau"], make_stream(b["seed"]))
    p = np.abs(transfer_matrix(circuit)) ** 2  # p[i, j]: photon in j exits at i
    mu = w["tau"] ** w["depth"]
    n = w["photons"]
    if w["mode"] == "scattershot":
        # collision-free heralds are independent Bernoulli(lam / (1 + lam)) per mode
        weights = np.full(w["modes"], w["herald_lambda"] / (1.0 + w["herald_lambda"]))
    else:
        weights = np.zeros(w["modes"])
        weights[:n] = 1.0
    low = p @ weights
    exp = {"low": low, "high": low, "var_floor": (p * (1.0 - p)) @ weights, "binomial": None}
    if w["tag"] == "thermal":
        exp["high"] = low / (1.0 - mu)  # surrogate mean mu/(1-mu) per input
    else:
        exp["binomial"] = (n, mu)
    return exp


def photon_bound(name: str) -> int | None:
    """Most photons a row may hold: the exact samplers conserve photons, and the
    thermal surrogate at mu ~ 0.03 exceeds N with probability
    < C(2N, N) mu**(N+1) ~ 1e-20.  Scattershot heralds have no fixed N."""
    w = WORKLOADS[name]
    return None if w["mode"] == "scattershot" else w["photons"]


def check_output(data: bytes, meta: str | None, name: str, cfg: dict, exp: dict | None) -> list:
    """All gate checks for one output; `exp` None skips the statistical ones."""
    w = WORKLOADS[name]
    counts, failures = gate.parse_rows(data, w["modes"], w["tag"], cfg["samples"])
    failures += gate.check_meta(meta, cfg["seed"], cfg["samples"], w["tag"])
    if counts is None:
        return failures
    failures += gate.check_photon_bound(counts, photon_bound(name))
    if exp is not None and counts.shape[0] > 1:
        if exp["binomial"]:
            failures += gate.check_binomial_totals(counts, *exp["binomial"])
        failures += gate.check_means(counts, exp["low"], exp["high"], exp["var_floor"])
    return failures


def environment(name: str, seed: int) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd())),
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "workload": name,
        "seed": seed,
        "cli_seed": derive_seed(name, seed, "sample"),
        "circuit_seed": derive_seed(name, seed, "circuit"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "child_env": {v: "1" for v in BLAS_VARS} | {"PYTHONPATH": "src"},
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "openblas": openblas,
        "git_commit": commit,
        "source_sha256": source_fingerprint(),
    }


def source_fingerprint() -> str:
    h = hashlib.sha256()
    for root, dirs, files in sorted(os.walk("src")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(root, f)
                h.update(path.encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def spawn(argv: list[str], deadline: float, stderr_path: str) -> tuple[float, int, int]:
    """Run argv to completion; return (wall seconds, max RSS KiB, exit code)."""
    env = dict(os.environ, PYTHONPATH="src", **{v: "1" for v in BLAS_VARS})
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode


class Run:
    """One benchmark run: invocations, their gate results and hash ledger."""

    def __init__(self, name: str, seed: int, seconds: float) -> None:
        self.name, self.seed, self.seconds = name, seed, seconds
        self.start = time.monotonic()
        self.work = os.path.join(OUT_DIR, f"work-{name}-{seed}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.attempted = 0
        self.bad: set[int] = set()  # indices of failed invocations
        self.by_samples: dict[int, list[int]] = {}  # sample count -> invocation indices
        self.failures: list[str] = []
        self.hashes: dict[int, str] = {}  # sample count -> output sha256
        self.valid: dict[str, tuple[bytes, str]] = {}  # kind -> first valid output
        self.times: dict[str, list[float]] = {}
        self.rss: list[float] = []

    def config(self, kind: str, samples: int) -> tuple[str, dict]:
        out = os.path.join(self.work, f"{kind}.jsonl")
        cfg = cli_config(self.name, self.seed, samples, out)
        path = os.path.join(self.work, f"{kind}.config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        return path, cfg

    def invoke(self, kind: str, samples: int, traced: bool = False) -> dict | None:
        """One gated invocation; returns the traced report when `traced`."""
        cfg_path, cfg = self.config(kind, samples)
        cli_args = ["sample", "--config", cfg_path]
        report_path = os.path.join(self.work, f"{kind}.report.json")
        if traced:
            spans = os.path.join(OUT_DIR, f"{self.name}.spans.npy")
            argv = [sys.executable, os.path.join(HERE, "traced.py"), spans, report_path, "--", *cli_args]
        else:
            argv = [sys.executable, "-m", "lossyboson.cli", *cli_args]
        stderr_path = os.path.join(self.work, f"{kind}.stderr")
        wall, rss_kib, rc = spawn(argv, self.start + RUN_DEADLINE_S, stderr_path)
        self.by_samples.setdefault(samples, []).append(self.attempted)
        self.attempted += 1
        report = None
        if rc != 0:
            with open(stderr_path, encoding="utf-8", errors="replace") as fh:
                problems = [f"exit code {rc}: {fh.read().strip()[-300:]}"]
        else:
            problems = self.gate(kind, cfg)
            if traced:
                with open(report_path, encoding="utf-8") as fh:
                    report = json.load(fh)
                wall -= report.pop("post_main_s")
                report["cli.output_bytes"] = os.path.getsize(cfg["out"])
        if problems:
            self.fail(kind, problems, [self.attempted - 1])
        self.times.setdefault(kind, []).append(wall)
        if kind == "full":
            self.rss.append(rss_kib / 1024.0)
        return report

    def fail(self, what: str, problems: list, invocations: list[int]) -> None:
        self.bad.update(invocations)
        self.failures += [f"{what}: {p}" for p in problems]

    def gate(self, kind: str, cfg: dict) -> list:
        with open(cfg["out"], "rb") as fh:
            data = fh.read()
        meta_path = cfg["out"] + ".meta.json"
        meta = open(meta_path, encoding="utf-8").read() if os.path.exists(meta_path) else None
        problems = check_output(data, meta, self.name, cfg, None)
        digest = hashlib.sha256(data).hexdigest()
        first = self.hashes.setdefault(cfg["samples"], digest)
        if digest != first:
            problems.append(f"output hash {digest[:12]} differs from {first[:12]} for the same seed")
        if not problems:
            self.valid.setdefault("setup" if cfg["samples"] == 1 else "full", (data, meta))
        return problems

    def loop(self, kinds: list[tuple[str, int, bool]]) -> list[dict]:
        """Cycle through `kinds` until the next invocation would pass --seconds."""
        reports = []
        begin = time.monotonic()
        done = 0
        while True:
            kind, samples, traced = kinds[done % len(kinds)]
            past = self.times.get(kind)
            if done >= len(kinds) and (not past or time.monotonic() - begin
                                       + statistics.median(past) > self.seconds):
                return reports
            report = self.invoke(kind, samples, traced)
            if report is not None:
                reports.append(report)
            done += 1

    def finish(self) -> dict:
        """Statistical gate, gate self-test and hash ledger; returns the self-test."""
        checks = self.statistics() if "full" in self.valid else {}
        if not all(checks.values()):
            self.failures.append(f"gate self-test: corruptions not detected {checks}")
        self.ledger()
        return checks

    def statistics(self) -> dict:
        w = WORKLOADS[self.name]
        cfg = cli_config(self.name, self.seed, w["samples"], "")
        data, meta = self.valid["full"]
        try:
            exp = expectation(self.name, cfg)
        except Exception:  # a broken program fails its outputs, not the benchmark
            self.fail("statistics", [traceback.format_exc(limit=3)], self.by_samples[w["samples"]])
            return {}
        problems = check_output(data, meta, self.name, cfg, exp)
        if problems:  # every full output has these bytes, so all of them fail
            self.fail("statistics", problems, self.by_samples[w["samples"]])
        corrupted = gate.corruptions(data, w["modes"], w["samples"], photon_bound(self.name))
        return {label: any(marker in f for f in check_output(bad, meta, self.name, cfg, exp))
                for label, (bad, marker) in corrupted.items()}

    def ledger(self) -> None:
        """Cross-run determinism: same program source and CLI config, same bytes."""
        path = os.path.join(OUT_DIR, "hashes.json")
        try:
            with open(path, encoding="utf-8") as fh:
                known = json.load(fh)
        except (OSError, json.JSONDecodeError):
            known = {}
        source = source_fingerprint()[:16]
        for samples, digest in self.hashes.items():
            cfg = json.dumps(cli_config(self.name, self.seed, samples, ""), sort_keys=True)
            key = f"{source}/{self.name}/{hashlib.sha256(cfg.encode()).hexdigest()[:16]}"
            if known.setdefault(key, digest) != digest:
                self.fail("determinism", [f"hash differs from an earlier run ({key})"],
                          self.by_samples[samples])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(known, fh, indent=1, sort_keys=True)


def tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    for pct in (99.9, 99, 95, 90, 75, 50):
        beyond = math.floor(len(values) * (1 - pct / 100) + 1e-9)
        if beyond >= 10:
            return f"p{pct:g} {float(np.percentile(values, pct)):.4f}"
    return "no percentile has 10 samples beyond it"


def metric_specs() -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "lossyboson", "cli.py")):
        print("perfbench: run from the repository root (src/lossyboson/cli.py not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, "src")  # the gate's closed forms use the program's transfer_matrix
    specs = metric_specs()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    compileall.compile_dir("src", quiet=1)  # users do not pay bytecode compilation per run
    os.makedirs(OUT_DIR, exist_ok=True)

    name, w = args.workload, WORKLOADS[args.workload]
    run = Run(name, args.seed, args.seconds)
    env = environment(name, args.seed)
    try:
        if args.trace:
            reports = run.loop([("full", w["samples"], False), ("traced", w["samples"], True)])
        else:
            run.loop([("setup", 1, False), ("full", w["samples"], False)])
        selftest = run.finish()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    if args.trace:
        units = specs["per_layer"]
        values = {k: statistics.median(r.get(k, 0) for r in reports) if reports else 0.0
                  for k in units if k != "trace.overhead_s"}
        values["trace.overhead_s"] = (statistics.median(run.times.get("traced", [0.0]))
                                      - statistics.median(run.times["full"]))
    else:
        units = specs["end_to_end"]
        values = {"wall_s": statistics.median(run.times["full"]),
                  "setup_s": statistics.median(run.times["setup"]),
                  "peak_rss_mb": statistics.median(run.rss)}
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}
    failed = len(run.bad)
    result = {"correct": not run.failures, "attempted": run.attempted, "failed": failed,
              "metrics": metrics}

    print(f"# perfbench {name} seed={args.seed} trace={args.trace} seconds={args.seconds:g}")
    print("# environment " + json.dumps(env, sort_keys=True))
    for kind, times in sorted(run.times.items()):
        print(f"# {kind:6s} invocations n={len(times)} median {statistics.median(times):.4f} s; "
              f"{tail(times)}; all: " + " ".join(f"{t:.3f}" for t in times))
    for k, m in metrics.items():
        print(f"# {k:45s} {m['value']:.6g} {m['unit']}")
    print(f"# error_rate {failed / run.attempted:.4f} ({failed} failed of {run.attempted} attempted)")
    print(f"# gate self-test (corruption -> tripped): {json.dumps(selftest)}")
    for f in run.failures[:20]:
        print(f"# FAIL {f}")
    with open(os.path.join(OUT_DIR, f"{name}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**result, "environment": env, "invocation_s": run.times, "peak_rss_mb": run.rss,
                   "failures": run.failures, "gate_selftest": selftest}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
