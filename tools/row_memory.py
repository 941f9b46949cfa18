"""Memory smoke check: does a run's peak stay flat as its row count grows?

Runs the CLI on two configs, each at a small and a large row count, in a
fresh process per run with BLAS at one thread, and reads each child's
``ru_maxrss``:

* the ``mps-shallow`` shape (14 modes, depth 3, tau 0.9, 7 photons, MPS
  mode) at 3 000 and 100 000 rows;
* the ``thermal-deep`` shape (200 modes, depth 200, tau 0.98262, 20 photons,
  thermal mode) at 2 000 and 20 000 rows.

Rows are drawn and written in blocks of a fixed size, so for each pair the
check fails if the large run's peak exceeds the small run's by more than
``FLAT_KIB``, or by more than ``LIMIT`` times the extra rows' int64 counts.

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
LIMIT = 2.0  # allowed peak growth over the extra rows' int64 bytes
FLAT_KIB = 2048  # allowed peak growth from the small to the large run
SHAPES = {  # name: (brickwork, sample settings, small and large row counts)
    "mps-shallow": ({"modes": 14, "depth": 3, "tau": 0.9},
                    {"photons": 7, "mode": "mps"}, (3000, 100000)),
    "thermal-deep": ({"modes": 200, "depth": 200, "tau": 0.98262},
                     {"photons": 20, "mode": "thermal"}, (2000, 20000)),
}


def config(name: str, samples: int, out: str) -> dict:
    """The sample config of one shape."""
    brickwork, settings, _ = SHAPES[name]
    return {"circuit": {"brickwork": {**brickwork, "seed": 1}}, **settings,
            "samples": samples, "seed": 1, "format": "jsonl", "out": out}


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
    ok = True
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "rows.jsonl")
        for name, (brickwork, _, rows) in SHAPES.items():
            small, large = (peak_kib(config(name, n, out), work) for n in rows)
            extra = (rows[1] - rows[0]) * brickwork["modes"] * 8 / 1024.0  # KiB of int64 counts
            ratio = (large - small) / extra
            ok &= ratio <= LIMIT and large - small <= FLAT_KIB
            print(json.dumps({"shape": name,
                              "peak_kib": {str(n): kib for n, kib in zip(rows, (small, large))},
                              "growth_kib": large - small, "flat_kib": FLAT_KIB,
                              "extra_counts_kib": round(extra, 1),
                              "growth_over_counts": round(ratio, 3), "limit": LIMIT}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
