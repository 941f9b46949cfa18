"""Command-line front end.

Four commands over a shared option set:

* ``plan``     - report the chosen regime, its error ledger and the thresholds
* ``sample``   - draw photon-count samples from a circuit
* ``validate`` - desk-scale self-checks and circuit-file checks
* ``stats``    - summarize a sample file, optionally against a reference law

Settings resolve in order: built-in defaults, then the ``--config`` JSON
file, then ``LOSSYBOSON_*`` environment variables, then command-line flags.
Exit codes: 0 success, 1 usage/input error (or standard output closed
early by its reader), 2 model violation (or failed validation), 3 capacity
exceeded.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import sys
import warnings
from dataclasses import fields

import numpy as np

from . import circuit as circ
from . import mps, oracle
from .errors import CapacityError, ModelViolationError
from .numerics import Distribution, row_groups, total_variation
from .rng import make_stream, split_stream
from .sampler import MODES, build_sampler

__all__ = ["main", "entry", "run_plan", "run_sample", "run_validate", "run_stats"]

COMMANDS = ("plan", "sample", "validate", "stats")
FORMATS = ("jsonl", "csv")
ENV_PREFIX = "LOSSYBOSON_"
FORMAT_BLOCK = 1 << 14  # byte slots per written block of sample rows
VALIDATE_ROWS = 20_000  # rows per sampler check of validate
FALSE_ALARM = 1e-6  # chance that a correct sampler fails one of validate's row checks

DEFAULTS = {
    "eps": 0.05,
    "samples": 100,
    "mode": "auto",
    "format": "jsonl",
    "workers": 1,
    "max_bond": mps.DEFAULT_MAX_BOND,
    "herald_lambda": 0.1,
    "density_k": 1.0,
    "density_gamma": 1.0,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(
        prog="lossyboson",
        description="Classical simulation of lossy multiphoton interference.",
    )
    p.add_argument("command", nargs="?", choices=COMMANDS, help="what to run")
    p.add_argument("--config", help="JSON config file; flags override its entries")
    p.add_argument("--circuit", help="circuit JSON file")
    p.add_argument("--seed", type=int, help="root RNG seed (fixed seed => fixed bytes)")
    p.add_argument("--samples", type=int, help="number of samples to draw")
    p.add_argument("--mode", choices=MODES,
                   help="sampling backend (auto follows the plan)")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--format", choices=FORMATS, help="sample output format")
    p.add_argument("--in", dest="input", help="sample file to read (stats)")
    p.add_argument("--reference", help="reference distribution JSON (stats)")
    p.add_argument("--eps", type=float, help="total-variation budget")
    p.add_argument("--photons", type=int, help="input photon number")
    p.add_argument("--workers", type=int,
                   help="number of seed streams the samples are split over; they run "
                        "one after another in one process, so this sets the output "
                        "layout, not parallelism (streams on threads raised the peak "
                        "memory of a 200-mode, 2-stream run from 49.4 to 69.6 MiB)")
    p.add_argument("--max-bond", type=int, dest="max_bond",
                   help="tensor-network bond-dimension cap")
    p.add_argument("--herald-lambda", type=float, dest="herald_lambda",
                   help="scattershot squeezing parameter")
    return p


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError("config file must hold a JSON object")
    return doc


def _env_overrides() -> dict:
    out = {}
    for key, cast in (
        ("seed", int), ("samples", int), ("mode", str), ("out", str),
        ("format", str), ("eps", float), ("workers", int),
    ):
        raw = os.environ.get(ENV_PREFIX + key.upper())
        if raw is None:
            continue
        try:
            out[key] = cast(raw)
        except ValueError as exc:
            raise UsageError(f"bad {ENV_PREFIX}{key.upper()}={raw!r}: {exc}") from exc
    return out


def _integer(value, key: str) -> int:
    """A setting that must be a JSON integer: ``2.5`` or ``true`` is a usage error, not 2 or 1."""
    if type(value) is not int:
        raise UsageError(f'"{key}" must be an integer, got {value!r}')
    return value


def _resolve(args: argparse.Namespace) -> dict:
    """Merge defaults < config file < environment < flags into one dict."""
    cfg = dict(DEFAULTS)
    cfg.update({k: v for k, v in _load_config(args.config).items() if v is not None})
    cfg.update(_env_overrides())
    cfg.update({k: v for k, v in vars(args).items()
                if v is not None and k not in ("command", "config")})
    command = args.command or cfg.get("command")
    if command not in COMMANDS:
        raise UsageError(
            f"no command given; choose one of {', '.join(COMMANDS)}"
        )
    cfg["command"] = command
    for key, low in (("photons", 1), ("samples", 1), ("workers", 1), ("max_bond", 1),
                     ("seed", 0)):
        if cfg.get(key) is not None and _integer(cfg[key], key) < low:
            raise UsageError(f'"{key}" must be >= {low}, got {cfg[key]}')
    for key, allowed in (("mode", MODES), ("format", FORMATS)):
        if cfg[key] not in allowed:
            raise UsageError(f"unknown {key} {cfg[key]!r}; choose one of {', '.join(allowed)}")
    try:
        k, gamma = float(cfg["density_k"]), float(cfg["density_gamma"])
        eps = float(cfg["eps"])
    except (TypeError, ValueError) as exc:
        raise UsageError(f"density_k, density_gamma and eps must be numbers: {exc}") from exc
    if not k > 0.0:
        raise UsageError(f"density_k must be > 0, got {k}")
    if not 0.0 < gamma <= 1.0:
        raise UsageError(f"density_gamma must lie in (0, 1], got {gamma}")
    if not 0.0 < eps < math.inf:
        raise UsageError(f"eps must be finite and > 0, got {eps}")
    return cfg


def _resolve_circuit(cfg: dict) -> tuple[circ.LayeredCircuit | None, str]:
    """The configured circuit and the text of its file ("" for a brickwork spec or none)."""
    spec = cfg.get("circuit")
    if spec is None:
        return None, ""
    if isinstance(spec, str):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read circuit {spec}: {exc}") from exc
        return circ.circuit_from_json(text), text
    if isinstance(spec, dict) and "brickwork" in spec:
        b = spec["brickwork"]
        try:
            return circ.random_brickwork(
                modes=_integer(b["modes"], "modes"),
                depth=_integer(b["depth"], "depth"),
                tau=float(b.get("tau", 1.0)),
                rng=make_stream(_integer(b.get("seed", 0), "seed")),
            ), ""
        except KeyError as exc:
            raise UsageError(f"brickwork spec missing key {exc}") from exc
        except TypeError as exc:  # not an object, or a tau that is not a number
            raise UsageError(f"brickwork spec must be an object of numbers, got {b!r}") from exc
    raise UsageError("circuit must be a file path or {'brickwork': {...}}")


def _counts(row) -> list:
    """A row of photon counts as read from a file: a list of non-negative ints."""
    if not isinstance(row, list) or not all(type(x) is int and x >= 0 for x in row):
        raise ValueError(f"counts must be non-negative integers, got {row!r}")
    return row


def _input_pattern(cfg: dict, modes: int) -> tuple:
    if "pattern" in cfg:
        pattern = tuple(_counts(cfg["pattern"]))
        if len(pattern) != modes:
            raise UsageError(
                f"pattern covers {len(pattern)} modes, circuit has {modes}"
            )
        return pattern
    n = cfg.get("photons")
    if n is None:
        raise UsageError('give "photons" or an explicit "pattern"')
    if n > modes:
        raise UsageError(f"{n} photons do not fit in {modes} modes one per mode")
    return (1,) * n + (0,) * (modes - n)


def _json_out(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def run_plan(cfg: dict) -> int:
    """Report the plan ``sample --mode auto`` acts on, and the paper's depth formulas.

    With a circuit the plan is the auto sampler's own, and ``tau`` is the
    per-layer mean mu**(1/D) of its uniform loss (null for mixed loss).
    Without one, the geometry ``modes``/``depth``/``tau`` gives
    mu_max = tau**depth.  With neither photons nor a pattern, N follows the
    density law k * M**gamma.  An infinite depth (no loss) is reported as
    null, as JSON has no infinity.
    """
    eps = float(cfg["eps"])
    k, gamma = float(cfg["density_k"]), float(cfg["density_gamma"])
    circuit, _ = _resolve_circuit(cfg)
    if circuit is not None:
        modes, depth, mu = circuit.modes, circuit.depth, circuit.uniform_mu()
        tau = None if mu is None else mu ** (1.0 / depth) if depth else 1.0  # per-layer mean
    else:
        for key in ("modes", "depth", "tau"):
            if key not in cfg:
                raise UsageError(f'plan needs "{key}" (or a circuit file)')
        modes, depth = _integer(cfg["modes"], "modes"), _integer(cfg["depth"], "depth")
        if modes < 1:
            raise UsageError(f"plan needs modes >= 1, got {modes}")
        tau = float(cfg["tau"])
        if depth < 0 or not 0.0 < tau <= 1.0:
            raise UsageError(f"plan needs depth >= 0 and tau in (0, 1], got {depth}, {tau}")
    if "pattern" not in cfg and cfg.get("photons") is None:
        cfg = dict(cfg, photons=max(1, round(k * modes**gamma)))
    pattern = _input_pattern(cfg, modes)
    if circuit is not None:
        decision = build_sampler("auto", circuit, pattern, eps).plan
    else:
        decision = circ.plan(tau**depth, sum(pattern), eps, exact_backend=True)
    report = {
        "regime": decision.regime,
        "photons": decision.photons,
        "modes": modes,
        "depth": depth,
        "tau": tau,
        "eps": eps,
        "mu_effective": decision.mu_max,
        "surrogate_error": decision.surrogate_error,
        "thermal_valid": decision.thermal_valid,
        "rationale": decision.rationale,
    }
    # the paper's depth formulas need one nonzero transmission per layer
    uniform = tau is not None and tau > 0.0
    report["depth_threshold_exponential"] = (
        circ.depth_threshold_exponential(modes, gamma, k, eps, tau) if uniform else None)
    report["thermalization_depth"] = (
        circ.thermalization_depth(decision.photons, eps, 1.0 - tau) if uniform else None)
    if "algebraic" in cfg:
        alg = cfg["algebraic"]
        try:
            result = circ.depth_threshold_algebraic(
                d_len=float(alg["d_len"]), beta=float(alg["beta"]),
                k=k, eps=eps, gamma=gamma, modes=modes,
            )
        except KeyError as exc:
            raise UsageError(f"algebraic spec missing key {exc}") from exc
        except TypeError as exc:  # not an object, or values that are not numbers
            raise UsageError(f"algebraic spec must be an object of numbers, got {alg!r}") from exc
        report["algebraic"] = {
            "depth_threshold": result.depth,
            "gamma_beta_ratio": result.gamma_beta_ratio,
            "efficient": result.efficient,
        }
    print(_json_out({key: None if v == math.inf else v for key, v in report.items()}))
    return 0


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def _row_bytes(head: bytes, tail: bytes, modes: int, width: int) -> int:
    """Byte slots of one written row: the head, one (width + 1)-byte slot per count, the tail.

    The last slot's separator byte holds the tail's first byte.
    """
    return len(head) + modes * (width + 1) + len(tail) - 1


def _write_rows(out, rows: np.ndarray, regime: str, fmt: str) -> None:
    """Write one line per row to ``out``: bare CSV counts, or JSONL as compact sorted
    ``json.dumps`` writes it.

    Each block of at most ``FORMAT_BLOCK`` byte slots is made as one uint8
    array and written before the next is made; blocks are sized by the
    widest count of all rows.  In a block whose largest count has w digits,
    every count gets a slot of w digit bytes and a separator; the digits are
    right-aligned, so the k-th from the right is ``count // 10**k % 10``,
    and a ``"0"`` pad fills the slot's left.  Head and tail are broadcast
    columns, and one boolean mask drops the pad bytes.
    """
    if not rows.size:
        return
    head, tail = (b"", b"\n") if fmt == "csv" else (
        b'{"n":[', b'],"regime":' + json.dumps(regime).encode() + b"}\n")
    modes = rows.shape[1]
    step = max(1, FORMAT_BLOCK // _row_bytes(head, tail, modes, len(str(rows.max()))))
    for start in range(0, len(rows), step):
        block = rows[start:start + step, :, None]
        width = len(str(block.max()))
        powers = 10 ** np.arange(width - 1, -1, -1)  # slot byte j holds the 10**(width-1-j) digit
        buf = np.empty((len(block), _row_bytes(head, tail, modes, width)), dtype=np.uint8)
        keep = np.ones(buf.shape, dtype=bool)
        counts = slice(len(head), len(head) + modes * (width + 1))
        slots = buf[:, counts].reshape(len(block), modes, width + 1)
        buf[:, :len(head)] = np.frombuffer(head, dtype=np.uint8)
        buf[:, counts.stop:] = np.frombuffer(tail[1:], dtype=np.uint8)
        slots[:, :, :width] = block // powers % 10 + ord("0")
        slots[:, :, width] = ord(",")
        slots[:, -1, width] = tail[0]
        keep[:, counts].reshape(slots.shape)[:, :, :width - 1] = block >= powers[:-1]
        out.write(buf[keep].tobytes().decode("ascii"))


def _config_hash(cfg: dict, circuit_text: str) -> str:
    """SHA-256 of the resolved settings and the circuit file's text ("" for a brickwork spec)."""
    skip = ("out", "input", "reference")
    payload = json.dumps(
        {k: cfg[k] for k in sorted(cfg)
         if k not in skip and not k.startswith("_")},
        sort_keys=True, default=str,
    ) + circuit_text
    return hashlib.sha256(payload.encode()).hexdigest()


def _open_out(path: str):
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def run_sample(cfg: dict) -> int:
    circuit, circuit_text = _resolve_circuit(cfg)
    if circuit is None:
        raise UsageError("sample needs a circuit (file path or brickwork spec)")
    pattern = _input_pattern(cfg, circuit.modes)
    n_samples, workers = cfg["samples"], cfg["workers"]
    sampler = build_sampler(
        cfg["mode"], circuit, pattern, eps=float(cfg["eps"]),
        max_bond=cfg["max_bond"], herald_lambda=float(cfg["herald_lambda"]),
    )
    streams = split_stream(make_stream(cfg.get("seed")), workers)
    base, extra = divmod(n_samples, workers)
    fmt, out_path = cfg["format"], cfg.get("out")
    out = None
    try:
        for w, stream in enumerate(streams):
            rows = sampler.draw(stream, base + (1 if w < extra else 0))
            if out is None:  # a run whose first draw fails leaves no file
                out = _open_out(out_path) if out_path else sys.stdout
            _write_rows(out, rows, sampler.regime, fmt)
            del rows  # the next stream draws without this one's counts
    finally:
        if out is not None and out is not sys.stdout:
            out.close()

    if out_path:
        meta = {
            "command": "sample",
            "config_hash": _config_hash(cfg, circuit_text),
            "seed": cfg.get("seed"),
            "samples": n_samples,
            "workers": workers,
            "regime": sampler.regime,
            "format": fmt,
            "modes": circuit.modes,
            "photons": sampler.plan.photons,
            "eps": float(cfg["eps"]),
            "thresholds": {
                "mu_effective": sampler.plan.mu_max,
                "surrogate_error": sampler.plan.surrogate_error,
            },
        }
        with _open_out(out_path + ".meta.json") as fh:
            fh.write(_json_out(meta) + "\n")
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _check(name: str, measured: float, bound: float) -> dict:
    return {"name": name, "measured": float(measured), "bound": float(bound),
            "pass": bool(measured <= bound)}


def _rows_check(name: str, rows: np.ndarray, law: Distribution, reference=None,
                slack: float = 0.0) -> dict:
    """TV from the empirical law of ``rows`` to ``reference`` (``law`` if None), against a
    bound that rows drawn from ``law`` exceed with probability at most ``FALSE_ALARM``.

    For n rows drawn from ``law``, E[TV] <= 1/2 sum_i sqrt(p_i (1 - p_i) / n) (Jensen on
    each outcome's count) plus the law's truncation error.  One row moves the TV by at
    most 1/n, so by McDiarmid's inequality it exceeds its mean by sqrt(ln(1/alpha) / (2n))
    with probability at most alpha.  ``slack`` bounds TV(law, reference).
    """
    n = len(rows)
    patterns, which = row_groups(rows)
    tv = total_variation(Distribution(patterns, np.bincount(which) / n),
                         law if reference is None else reference)
    p = law.weights
    bound = (0.5 * float(np.sqrt(p * (1.0 - p) / n).sum()) + law.truncation_error + slack
             + math.sqrt(math.log(1.0 / FALSE_ALARM) / (2 * n)))
    return {**_check(name, tv, bound), "rows": n, "alpha": FALSE_ALARM}


def run_validate(cfg: dict) -> int:
    rng = make_stream(cfg.get("seed") if cfg.get("seed") is not None else 7)
    [draws] = split_stream(rng, 1)  # the sampler checks' stream; rng's own draws stay as they are
    checks = []

    bw = circ.random_brickwork(6, 3, 0.9, rng)
    mu = circ.decompose_losses(circ.transfer_matrix(bw))
    checks.append(_check("brickwork_uniform_loss", float(np.abs(mu - 0.9**3).max()), 1e-10))

    lossless = circ.random_brickwork(5, 3, 1.0, rng)
    a = circ.transfer_matrix(lossless)
    dev = float(np.abs(a @ a.conj().T - np.eye(5)).max())
    checks.append(_check("lossless_transfer_unitary", dev, 1e-12))

    photons = cfg.get("photons", 2)
    if photons > oracle.ORACLE_MAX_PHOTONS:
        checks.append({"name": "mps_matches_oracle", "skipped": f"requested {photons} photons "
                       f"exceeds oracle cap {oracle.ORACLE_MAX_PHOTONS}"})
    else:
        modes = max(4, photons)
        test_c = circ.random_brickwork(modes, 2, 1.0, rng)
        u = circ.transfer_matrix(test_c)
        pattern = (1,) * photons + (0,) * (modes - photons)
        exact = oracle.fock_output_distribution(u, pattern)
        state = mps.simulate_circuit(test_c, pattern)
        probs = np.array([mps.outcome_probability(state, o) for o in exact.outcomes])
        tvd = 0.5 * float(np.abs(probs - exact.weights).sum())
        checks.append(_check("mps_matches_oracle", tvd, 1e-10))

    # Rows drawn through build_sampler at desk size, N = 3 on modes 0-2, held against
    # exact laws: oracle and MPS rows on bw, and auto rows on a deep circuit that the
    # planner sends to the thermal surrogate, which is within N * mu**2 of the Fock law.
    pattern, eps = (1, 1, 1, 0, 0, 0), DEFAULTS["eps"]
    lossy = oracle.lossy_exact_distribution(circ.transfer_matrix(bw.lossless_copy()),
                                            bw.uniform_mu(), pattern)
    for mode in ("oracle", "mps"):
        rows = build_sampler(mode, bw, pattern, eps).draw(draws, VALIDATE_ROWS)
        checks.append(_rows_check(f"{mode}_rows_match_lossy_law", rows, lossy))
    deep = circ.random_brickwork(6, 10, 0.8, draws)
    auto = build_sampler("auto", deep, pattern, eps)
    rows = auto.draw(draws, VALIDATE_ROWS)
    u, mu = circ.transfer_matrix(deep.lossless_copy()), deep.uniform_mu()
    surrogate = oracle.thermal_exact_distribution(u, mu, 3, cutoff=6)
    fock = oracle.lossy_exact_distribution(u, mu, pattern)
    for name, reference, slack in (("auto_rows_match_thermal_law", None, 0.0),
                                   ("auto_rows_near_fock_law", fock, auto.plan.surrogate_error)):
        check = _rows_check(name, rows, surrogate, reference, slack)
        check["regime"] = auto.regime
        check["pass"] &= auto.regime == "thermal"
        checks.append(check)

    circuit, _ = _resolve_circuit(cfg)
    if circuit is not None:
        mu = circ.decompose_losses(circ.transfer_matrix(circuit))  # ModelViolationError -> exit 2
        checks.append(_check("circuit_passive", float(np.sqrt(mu.max())), 1.0 + 1e-9))
        again = circ.circuit_from_json(circ.circuit_to_json(circuit))
        same = all(np.asarray(getattr(again, f.name)).tobytes()
                   == np.asarray(getattr(circuit, f.name)).tobytes() for f in fields(circuit))
        checks.append(_check("circuit_roundtrip_bit_exact", 0.0 if same else 1.0, 0.0))

    all_pass = all(c.get("pass", True) for c in checks)
    print(_json_out({"checks": checks, "all_pass": all_pass}))
    return 0 if all_pass else 2


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def _read_samples(path: str) -> tuple[np.ndarray, list]:
    """Count rows and regime tags of a sample file, JSONL or CSV as its first line shows."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise UsageError(f"cannot read samples {path}: {exc}") from exc
    if not lines:
        raise UsageError(f"sample file {path} is empty")
    fmt = "jsonl" if lines[0].startswith("{") else "csv"
    counts, regimes = [], []
    for lineno, ln in enumerate(lines, start=1):
        try:
            if fmt == "jsonl":
                doc = json.loads(ln)
                counts.append(_counts(doc["n"]))
                regimes.append(doc.get("regime", "?"))
            else:
                counts.append(_counts([int(x) for x in ln.split(",")]))
                regimes.append("?")
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise UsageError(
                f"{path} line {lineno}: cannot parse as {fmt}: {exc}"
            ) from exc
    width = {len(c) for c in counts}
    if len(width) != 1:
        raise UsageError("sample rows have inconsistent mode counts")
    return np.array(counts, dtype=int), regimes


def run_stats(cfg: dict) -> int:
    path = cfg.get("input") or cfg.get("out")
    if not path:
        raise UsageError("stats needs --in (or an out path in the config)")
    arr, regimes = _read_samples(path)
    totals, freq = np.unique(arr.sum(axis=1), return_counts=True)
    report = {
        "samples": int(arr.shape[0]),
        "modes": int(arr.shape[1]),
        "mean_counts": [float(x) for x in arr.mean(axis=0)],
        "total_photon_histogram": {str(k): c for k, c in zip(totals.tolist(), freq.tolist())},
        "regimes": sorted(set(regimes)),
    }
    ref_path = cfg.get("reference")
    if ref_path:
        try:
            with open(ref_path, "r", encoding="utf-8") as fh:
                ref = json.load(fh)
            ref_dist = Distribution([_counts(row) for row in ref["outcomes"]], ref["weights"],
                                    float(ref.get("truncation_error", 0.0)))
        except (OSError, KeyError, TypeError, json.JSONDecodeError, ValueError) as exc:
            raise UsageError(f"bad reference distribution {ref_path}: {exc}") from exc
        if ref_dist.outcomes.shape[1] != arr.shape[1]:
            raise UsageError(f"reference {ref_path} does not cover the {arr.shape[1]} sample modes")
        patterns, which = row_groups(arr)
        emp_dist = Distribution(patterns, np.bincount(which) / len(arr))
        report["tvd_to_reference"] = total_variation(emp_dist, ref_dist)
    print(_json_out(report))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve(args)
        runner = {
            "plan": run_plan,
            "sample": run_sample,
            "validate": run_validate,
            "stats": run_stats,
        }[cfg["command"]]
        return runner(cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ModelViolationError as exc:
        print(f"model violation: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """Process entry of the ``lossyboson`` script and of ``python -m lossyboson.cli``.

    Runs ``main`` on ``sys.argv`` and exits with its code.  Everything
    imported so far is frozen out of the garbage collector: the ~22 000
    objects numpy and this package leave live until exit, and without the
    freeze the interpreter's final collections walk them all, 15-21 ms of
    every benchmark run on a 2-vCPU machine.  A warning prints as one
    ``warning:`` line.  A reader that closes standard output early
    (``| head``) ends the run with exit code 1 and no traceback, as the
    "Note on SIGPIPE" in Python's ``signal`` docs describes: what is still
    buffered goes to devnull.
    """
    gc.freeze()
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
