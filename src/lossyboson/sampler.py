"""One sampler interface over the thermal, MPS and oracle backends.

``build_sampler`` turns a mode, a circuit and an input pattern into a
:class:`Sampler` whose ``draw(rng, size)`` returns a ``(size, M)`` array of
photon counts.  Circuit-level work is done once per sampler: the largest
transmission mu_max that :func:`circuit.plan` reads (``circuit.uniform_mu()``,
as the MPS and oracle sources get it, or the top loss-SVD value of the
transfer matrix A for mixed loss); the columns of A a thermal source draws
from, as A / sqrt(mu_max); the MPS lossless copy, gate tensors and
evolved-state cache; the oracle's exact law.  MPS rows come from :func:`mps.sample`, which
redraws its own underflowed rows.  Every source draws whole arrays:
``draw(inputs, rng)`` takes a (rows, K) 0/1 array that marks each row's
occupied inputs among the source's K columns.  A fixed pattern is broadcast
to every row (to its occupied columns only, for the thermal source);
scattershot first draws one collision-free herald per row over all M modes,
as bool rows.  A draw holds its (rows, M) int64 counts once; beside them
sit only pieces of bounded size and a few values per row or per occupied
input.  MPS rows are grouped once, by their end and thinned input (a
broadcast pattern without a sort), drawn into place and thinned in place;
each thermal block finds its own occupied entries.  ``lossyboson sample``
draws once per fixed-size block of its run: a draw's counts are one block's.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import circuit as circ
from . import mps, oracle, thermal
from .errors import ModelViolationError
from .numerics import row_groups
from .rng import RandomStream

__all__ = ["MODES", "Sampler", "ThermalSource", "MPSSource", "build_sampler"]

MODES = ("auto", "thermal", "mps", "oracle", "scattershot")


@dataclass(frozen=True)
class Sampler:
    """Photon-count rows from one circuit; ``regime`` is the tag for each row.

    ``draw(rng, size)`` returns a (size, M) int array.  ``plan`` is the
    planner's verdict and error ledger for the pattern, also when a forced
    mode overrides its regime.
    """

    regime: str
    draw: Callable[[RandomStream, int], np.ndarray]
    plan: circ.SimulationPlan


class ThermalSource:
    """Thermal surrogate of one circuit, drawn for any set of occupied input columns.

    ``a`` holds the K columns of the transfer matrix A that the (rows, K)
    ``inputs`` of :meth:`draw` index: a fixed pattern's occupied modes, or
    all M.  The largest transmission mu_max of A becomes the thermal
    parameter of every input; the residual a / sqrt(mu_max) carries the rest
    of the loss.  A fully blocking circuit (mu_max = 0) keeps a (all zeros).
    """

    def __init__(self, a: np.ndarray, mu_max: float):
        self.params = thermal.ThermalParams(min(mu_max, 1.0 - 1e-9))
        self.residual = a / math.sqrt(mu_max) if mu_max > 0.0 else a

    def draw(self, inputs: np.ndarray, rng: RandomStream) -> np.ndarray:
        return thermal.sample_output(self.residual, self.params, inputs, rng)


class MPSSource:
    """Exact MPS sampling of one uniform-loss circuit, for any occupied input modes.

    ``mu`` is every mode's transmission, read by ``build_sampler`` from
    ``circuit.uniform_mu()``; it commutes with the lossless circuit, so each
    input pattern of a draw takes the cheaper end for its loss.  With r rows
    of an n-photon pattern over the run and r * mu**n >= 1 the all-survivor
    pattern is expected among the thinned inputs, so its n-photon state would
    be evolved anyway: the rows are drawn from that one state and each output
    count is thinned with ``rng.binomial(counts, mu)``.  Otherwise every input
    photon is kept with probability mu and the survivors are drawn through the
    lossless circuit, which evolves only smaller states.  A draw that is one
    block of a ``run_rows``-row run reads r as its own count times
    ``run_rows`` over its rows, so every block picks the ends the whole run
    would; without ``run_rows`` each draw is its own run.  Evolved states are
    cached by the pattern they start from.  ``gates`` holds one Fock tensor
    per coupler (phases folded in), or ``None`` for a coupler that has only
    met vacuum; ``mps.simulate_circuit`` builds each at the larger light-cone
    cutoff of its two sites, rebuilds it only when a later pattern needs a
    larger one, and slices it to each pattern's own site dimensions.
    """

    def __init__(self, circuit: circ.LayeredCircuit, mu: float, max_bond: int,
                 run_rows: int | None = None):
        self.mu = mu
        self.run_rows = run_rows
        self.lossless = circuit.lossless_copy()
        self.max_bond = max_bond
        self.gates: list = [None] * len(circuit.gate_mode)
        self.states: dict = {}  # input pattern -> evolved state, drawn from as it is

    def state(self, pattern: tuple) -> mps.MPSState:
        if pattern not in self.states:
            if len(self.states) >= 4096:
                self.states.clear()  # unbounded pattern variety: keep memory flat
            self.states[pattern] = mps.simulate_circuit(
                self.lossless, pattern, self.max_bond, self.gates)
        return self.states[pattern]

    def draw(self, inputs: np.ndarray, rng: RandomStream) -> np.ndarray:
        """Lossy rows: thin at the input or at the output, per input pattern.

        If some rows are thinned at the input, each row gets a bool key of
        its end (input side first) and its input, whose input-side occupied
        entries are thinned in place, row-major, by one call; the keys are
        grouped once.  One loop draws each group's lossless rows into place
        in sorted order, into the output itself when one group covers it.
        Output-side counts are then thinned by ``rng.binomial`` in place, in
        row order, over pieces of :data:`mps.DRAW_CHUNK` rows.  The rows
        depend only on ``rng`` and ``inputs``; only the output spans the draw.
        """
        inputs = np.asarray(inputs)
        patterns, which = row_groups(inputs)
        rows = np.bincount(which, minlength=len(patterns)) * (self.run_rows or len(inputs))
        rows = rows / len(inputs)  # each pattern's rows over the run
        at_output = (rows * self.mu ** patterns.sum(axis=1) >= 1.0)[which]
        if not at_output.all():
            key = np.empty((len(inputs), 1 + inputs.shape[1]), dtype=bool)
            key[:, 0], key[:, 1:] = at_output, inputs
            thinned = key[:, 1:] & ~at_output[:, None]
            key[:, 1:][thinned] = mps.lossy_input_sample(np.count_nonzero(thinned), self.mu, rng)
            del thinned
            patterns, which = row_groups(key)
            patterns = patterns[:, 1:]
        out = np.empty(inputs.shape, dtype=int)
        for g, pattern in enumerate(patterns):
            state = self.state(tuple(int(x) for x in pattern))
            if len(patterns) == 1:
                mps.sample(state, rng, len(out), out=out)
            else:
                group = np.flatnonzero(which == g)
                out[group] = mps.sample(state, rng, len(group))
        for start in range(0, len(out), mps.DRAW_CHUNK):
            chunk = slice(start, start + mps.DRAW_CHUNK)
            piece, keep = out[chunk], at_output[chunk]
            piece[keep] = rng.binomial(piece[keep], self.mu)
        return out


def _zero_one(pattern: tuple, backend: str) -> np.ndarray:
    if any(x > 1 for x in pattern):
        raise ValueError(f"{backend} sampling expects 0/1 input patterns")
    return np.array(pattern, dtype=int)


def _oracle_sampler(circuit: circ.LayeredCircuit, mu: float, pattern: tuple,
                    decision: circ.SimulationPlan) -> Sampler:
    """Rows drawn from the exact law: every input photon survives the uniform
    loss mu on its own (mu is 1 on a lossless circuit)."""
    dist = oracle.lossy_exact_distribution(circ.transfer_matrix(circuit.lossless_copy()), mu,
                                           pattern)
    weights = dist.weights / dist.weights.sum()
    return Sampler(
        "oracle",
        lambda rng, size: dist.outcomes[rng.choice(len(weights), size=size, p=weights)],
        decision,
    )


def build_sampler(
    mode: str,
    circuit: circ.LayeredCircuit,
    pattern,
    eps: float,
    max_bond: int = mps.DEFAULT_MAX_BOND,
    herald_lambda: float = 0.1,
    run_rows: int | None = None,
) -> Sampler:
    """Sampler for ``pattern`` through ``circuit`` in one of :data:`MODES`.

    The pattern is planned with :func:`circuit.plan` on the largest
    transmission: ``circuit.uniform_mu()`` for uniform loss, the top
    loss-SVD value of the transfer matrix for mixed loss.  ``auto`` takes the plan's regime and
    raises :class:`ModelViolationError` when it has none.  ``scattershot``
    heralds a collision-free input per row with squeezing ``herald_lambda``,
    so each row carries its own photon number N_h and the pattern is not
    used.  The herald mixture is within the mean of the per-herald bounds,
    E[N_h] * mu_max**2, of the exact law, so its thermal-or-MPS inner source
    is planned on the mean E[N_h] = M * lam / (1 + lam).  A thermal sampler
    outside its bound warns once; ``mps`` or ``oracle`` on mixed loss raises
    ``ValueError``.  ``run_rows`` is the rows of the run that the draws are
    blocks of; the MPS source picks its ends for it (see :class:`MPSSource`).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; choose one of {', '.join(MODES)}")
    pattern = tuple(int(x) for x in pattern)
    mu = circuit.uniform_mu()
    a = circ.transfer_matrix(circuit) if mu is None else None  # mixed loss: SVD of all of A
    mu_max = mu if a is None else float(circ.decompose_losses(a).max())
    photons = (circuit.modes * herald_lambda / (1.0 + herald_lambda) if mode == "scattershot"
               else sum(pattern))
    decision = circ.plan(mu_max, photons, eps, exact_backend=mu is not None)
    if mode == "auto":
        if decision.regime is None:
            raise ModelViolationError(decision.rationale)
        mode = decision.regime
    if mode in ("mps", "oracle") and mu is None:
        raise ValueError(f"{mode} sampling needs uniform loss; circuit transmissions are "
                         f"{sorted(set(circuit.tau.tolist() + circuit.idle_tau.tolist()))}")
    if mode == "oracle":
        return _oracle_sampler(circuit, mu, pattern, decision)
    columns = slice(None)  # the columns of A a thermal source draws from
    if mode == "scattershot":
        regime = decision.regime or "thermal"  # only the thermal source takes mixed loss

        def inputs(rng: RandomStream, size: int) -> np.ndarray:
            return thermal.scattershot_herald(circuit.modes, herald_lambda, rng, size)
    else:
        regime, row = mode, _zero_one(pattern, mode)
        if regime == "thermal":
            columns = np.flatnonzero(row)
            row = np.ones(len(columns), dtype=int)

        def inputs(rng: RandomStream, size: int) -> np.ndarray:
            return np.broadcast_to(row, (size, len(row)))
    if regime == "thermal":
        a = circ.transfer_matrix(circuit, columns) if a is None else a[:, columns]
        source = ThermalSource(a, mu_max)
        if not decision.thermal_valid:
            warnings.warn(f"{decision.rationale}; sampling anyway because {mode} mode "
                          "was requested")
    else:
        source = MPSSource(circuit, mu, max_bond, run_rows)
    return Sampler(regime, lambda rng, size: source.draw(inputs(rng, size), rng), decision)
