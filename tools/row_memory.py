"""Memory smoke check: does a run's peak grow by about one int64 copy of its rows?

Runs the CLI on the ``mps-shallow``-shaped config (14 modes, depth 3,
tau 0.9, 7 photons, MPS mode) at 3 000 and at 100 000 rows, each in a fresh
process with BLAS at one thread, and reads each child's ``ru_maxrss``.  The
difference is compared with the extra rows' int64 counts (97 000 x 14 x 8
bytes); the check fails if it exceeds twice that.

Start it under ``python -S`` from the repository root::

    python3 -S tools/row_memory.py

Linux carries a parent's resident high-water mark into a forked child, so a
parent that imported numpy would set the children's floor; this script
imports only the standard library and no site packages.
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROWS = (3000, 100000)
LIMIT = 2.0  # allowed peak growth over the extra rows' int64 bytes


def config(samples: int, out: str) -> dict:
    """The ``mps-shallow``-shaped sample config."""
    return {"circuit": {"brickwork": {"modes": 14, "depth": 3, "tau": 0.9, "seed": 1}},
            "photons": 7, "mode": "mps", "samples": samples, "seed": 1, "workers": 1,
            "format": "jsonl", "out": out}


def peak_kib(cfg: dict, work: str) -> int:
    """``ru_maxrss`` in KiB of one ``lossyboson sample`` run on ``cfg``."""
    path = os.path.join(work, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.Popen([sys.executable, "-m", "lossyboson.cli", "sample", "--config", path],
                            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"sample run failed on {json.dumps(cfg)}")
    return usage.ru_maxrss


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "rows.jsonl")
        small, large = (peak_kib(config(n, out), work) for n in ROWS)
    extra = (ROWS[1] - ROWS[0]) * 14 * 8 / 1024.0  # KiB of int64 counts
    ratio = (large - small) / extra
    print(json.dumps({"peak_kib": {str(n): kib for n, kib in zip(ROWS, (small, large))},
                      "extra_counts_kib": round(extra, 1), "growth_over_counts": round(ratio, 3),
                      "limit": LIMIT}))
    return 0 if ratio <= LIMIT else 1


if __name__ == "__main__":
    sys.exit(main())
