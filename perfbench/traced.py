"""Traced `lossyboson sample`: the real CLI with spans around each layer's calls.

Usage: python perfbench/traced.py SPANS_NPY REPORT_JSON -- CLI_ARGS...
(run with PYTHONPATH=src from the repository root; `perfbench/run.py` does this).

Spans are recorded from outside the program: the public functions of each
module are replaced by wrappers before the CLI runs.  This works because the
CLI, `mps` and `thermal` look their callees up as module attributes.
`permanent` is imported by name into `oracle`, so it is wrapped there.
Each span is (parent index, name index, start ns, end ns), kept in memory in
a flat int64 array and written out once the CLI returns.  The report holds
per-function calls, busy time (sum of span durations) and self time (busy
minus the wrapped children), plus counters observed at the same boundaries.
"""

from __future__ import annotations

import json
import sys
import time
from array import array


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("q")  # parent, name, start_ns, end_ns per span
        self.stack = [-1]
        self.counters: dict[str, float] = {}

    def bump(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def wrap(self, module, attr: str, name: str, observe=None) -> None:
        fn = getattr(module, attr)
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span_id = len(spans) // 4
            parent = stack[-1]
            spans.extend((parent, index, 0, 0))
            stack.append(span_id)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.bump(name + ".raised")
                raise
            finally:
                spans[4 * span_id + 3] = clock()
                spans[4 * span_id + 2] = start
                stack.pop()
            if observe is not None:
                observe(args, out)
            return out

        setattr(module, attr, wrapper)

    def report(self) -> dict:
        import numpy as np

        sp = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 4)
        parent, name, dur = sp[:, 0], sp[:, 1], (sp[:, 3] - sp[:, 2]) / 1e9
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(sp))
        out = {}
        for k, label in enumerate(self.names):
            mine = name == k
            out[label + ".calls"] = int(mine.sum())
            out[label + ".busy_s"] = float(dur[mine].sum())
            out[label + ".self_s"] = float((dur[mine] - child[mine]).sum())
        out.update(self.counters)
        return out

    def save(self, path: str) -> None:
        import numpy as np

        np.save(path, np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 4))
        with open(path + ".names.json", "w", encoding="utf-8") as fh:
            json.dump(self.names, fh)


def install(tracer: Tracer) -> None:
    from lossyboson import circuit, cli, mps, oracle, thermal

    t = tracer
    t.wrap(cli, "run_sample", "cli.run_sample")
    for attr in ("random_brickwork", "circuit_to_json", "transfer_matrix", "decompose_losses"):
        t.wrap(circuit, attr, "circuit." + attr)
    t.wrap(thermal, "sample_output", "thermal.sample_output")
    t.wrap(thermal, "gauss_hermite_constellation", "thermal.gauss_hermite_constellation",
           lambda a, out: t.peak("thermal.constellation_order", out.order))
    t.wrap(thermal, "sample_thermal_coherent", "thermal.sample_thermal_coherent")
    t.wrap(thermal, "propagate", "thermal.propagate")
    t.wrap(thermal, "sample_poisson_bernoulli", "thermal.sample_poisson_bernoulli",
           lambda a, out: t.peak("thermal.trials", a[1]))
    t.wrap(thermal, "scattershot_herald", "thermal.scattershot_herald",
           lambda a, out: t.bump("thermal.heralds_accepted", int(out.max() <= 1)))
    for attr in ("simulate_circuit", "coupler_mpo", "apply_coupler", "sample", "lossy_input_sample"):
        t.wrap(mps, attr, "mps." + attr)
    t.wrap(mps, "canonicalize", "mps.canonicalize",
           lambda a, out: t.peak("mps.peak_bond", out.peak_bond))
    t.wrap(oracle, "fock_output_distribution", "oracle.fock_output_distribution")
    t.wrap(oracle, "permanent", "numerics.permanent")


def derived(r: dict) -> dict:
    """Ratios and counters named by the benchmark, from the raw report."""
    heralds = r["thermal.scattershot_herald.calls"]
    lookups = r["mps.lossy_input_sample.calls"]
    return {
        "thermal.herald_accept_ratio": r.get("thermal.heralds_accepted", 0) / heralds if heralds else 0.0,
        "mps.cache_hit_ratio": 1.0 - r["mps.simulate_circuit.calls"] / lookups if lookups else 0.0,
        "mps.resample_retries": r.get("mps.sample.raised", 0),
        "thermal.constellation_order": r.get("thermal.constellation_order", 0),
        "thermal.trials": r.get("thermal.trials", 0),
        "mps.peak_bond": r.get("mps.peak_bond", 0),
    }


def main(argv: list[str]) -> int:
    spans_path, report_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_NPY REPORT_JSON -- CLI_ARGS...")
    start = time.perf_counter()
    import lossyboson.cli as cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    rc = cli.main(cli_args)
    main_end = now()
    report = tracer.report()
    report.update(derived(report))
    report["cli.import_s"] = import_s
    tracer.save(spans_path)
    report["post_main_s"] = now() - main_end
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
