"""Correctness gate for one `lossyboson sample` output file.

The gate runs outside the timed region.  Each check returns a list of
failure messages; an empty list means the output passed.  Structural checks
(row count, row width, non-negative counts, regime tag, `.meta.json`
sidecar) apply to every output.  Statistical checks compare the samples
against closed forms built from the public `transfer_matrix`:

* row totals never exceed the photon bound;
* the total-photon histogram fits Binomial(N, tau**D) (exact samplers);
* per-mode means fit sum_j w_j |A_ij|^2 over the inputs j, where the
  thermal surrogate may sit anywhere between that value and the value
  widened by its known factor 1 / (1 - mu).

Thresholds are wide (|z| <= 5, chi-square p >= 1e-6), so a correct program
fails with negligible probability over many runs while the corruptions in
`corruptions` always trip.
"""

from __future__ import annotations

import json
import math

import numpy as np

Z_LIMIT = 5.0
P_LIMIT = 1e-6


def parse_rows(data: bytes, modes: int, tag: str, samples: int) -> tuple[np.ndarray | None, list]:
    """Parse JSONL sample rows; return (counts array or None, failures)."""
    failures = []
    lines = data.decode("utf-8").splitlines()
    if len(lines) != samples:
        failures.append(f"expected {samples} rows, found {len(lines)}")
    rows = []
    for lineno, line in enumerate(lines, start=1):
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            failures.append(f"row {lineno}: not JSON ({exc})")
            continue
        n = doc.get("n") if isinstance(doc, dict) else None
        if not isinstance(n, list) or len(n) != modes:
            failures.append(f"row {lineno}: expected {modes} counts, got {n!r:.60}")
            continue
        if any(type(x) is not int or x < 0 for x in n):
            failures.append(f"row {lineno}: counts must be non-negative ints")
            continue
        if doc.get("regime") != tag:
            failures.append(f"row {lineno}: regime {doc.get('regime')!r}, expected {tag!r}")
            continue
        rows.append(n)
    if failures:
        return None, failures[:5] + ([f"... {len(failures) - 5} more"] if len(failures) > 5 else [])
    return np.array(rows, dtype=np.int64).reshape(len(rows), modes), []


def check_meta(meta_text: str | None, seed: int, samples: int, tag: str) -> list:
    if meta_text is None:
        return ["missing .meta.json sidecar"]
    try:
        meta = json.loads(meta_text)
    except json.JSONDecodeError as exc:
        return [f".meta.json is not JSON ({exc})"]
    if not isinstance(meta, dict):
        return [".meta.json does not hold an object"]
    failures = []
    for key, want in (("seed", seed), ("samples", samples), ("regime", tag)):
        if meta.get(key) != want:
            failures.append(f".meta.json {key}={meta.get(key)!r}, expected {want!r}")
    return failures


def check_photon_bound(counts: np.ndarray, bound: int | None) -> list:
    totals = counts.sum(axis=1)
    if bound is None or not totals.size or totals.max() <= bound:
        return []
    return [f"row total {int(totals.max())} exceeds {bound} input photons"]


def _chi2_sf(stat: float, dof: int) -> float:
    from scipy.special import gammaincc

    return float(gammaincc(dof / 2.0, stat / 2.0))


def check_binomial_totals(counts: np.ndarray, n: int, mu: float) -> list:
    """Chi-square fit of the total-photon histogram to Binomial(n, mu)."""
    s = counts.shape[0]
    totals = counts.sum(axis=1)
    observed = np.bincount(totals, minlength=n + 1)[: n + 1].astype(float)
    pmf = np.array([math.comb(n, k) * mu**k * (1.0 - mu) ** (n - k) for k in range(n + 1)])
    expected = s * pmf
    # merge sparse bins (expected < 5) into their neighbour towards the mode
    obs_bins, exp_bins, acc_o, acc_e = [], [], 0.0, 0.0
    for o, e in zip(observed, expected):
        acc_o, acc_e = acc_o + o, acc_e + e
        if acc_e >= 5.0:
            obs_bins.append(acc_o)
            exp_bins.append(acc_e)
            acc_o = acc_e = 0.0
    if exp_bins:
        obs_bins[-1] += acc_o
        exp_bins[-1] += acc_e
    if len(exp_bins) < 2:
        return []
    o, e = np.array(obs_bins), np.array(exp_bins)
    stat = float(((o - e) ** 2 / e).sum())
    p = _chi2_sf(stat, len(e) - 1)
    return [] if p >= P_LIMIT else [f"total-photon histogram misfits Binomial({n}, {mu:.4f}): p={p:.2e}"]


def check_means(counts: np.ndarray, low: np.ndarray, high: np.ndarray, var_floor: np.ndarray) -> list:
    """Per-mode and total means must lie in [low, high] up to Z_LIMIT standard errors."""
    s = counts.shape[0]
    failures = []
    series = [(f"mode {i}", counts[:, i], low[i], high[i], var_floor[i]) for i in range(counts.shape[1])]
    series.append(("total", counts.sum(axis=1), low.sum(), high.sum(), var_floor.sum()))
    for label, x, lo, hi, floor in series:
        mean = float(x.mean())
        gap = mean - min(max(mean, lo), hi)
        sd = math.sqrt(max(float(x.var()), floor) / s)
        z = 0.0 if abs(gap) <= 1e-12 else (gap / sd if sd > 0 else math.inf)
        if abs(z) > Z_LIMIT:
            failures.append(f"{label} mean {mean:.5f} outside [{lo:.5f}, {hi:.5f}] (z={z:.1f})")
    return failures[:5]


def corruptions(data: bytes, modes: int, samples: int, photon_bound: int | None) -> dict:
    """Corrupted copies of a valid output: name -> (bytes, text of the failure it must raise)."""
    lines = data.decode("utf-8").splitlines()
    first = json.loads(lines[0])

    def row(n, regime=first["regime"]):
        return json.dumps({"n": n, "regime": regime}, separators=(",", ":"))

    out = {
        "wrong_width": ([row(first["n"] + [0])] + lines[1:], f"expected {modes} counts"),
        "missing_row": (lines[:-1], f"expected {samples} rows"),
        "wrong_regime": ([row(first["n"], "bogus")] + lines[1:], "regime 'bogus'"),
    }
    if photon_bound is not None:
        # "10 detected from 3": one row carries more photons than were sent in
        n = [photon_bound + 1] + [0] * (modes - 1)
        out["too_many_photons"] = ([row(n)] + lines[1:], f"exceeds {photon_bound} input photons")
    return {name: (("\n".join(rows) + "\n").encode("utf-8"), marker)
            for name, (rows, marker) in out.items()}
