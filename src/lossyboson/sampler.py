"""One sampler interface over the thermal, MPS and oracle backends.

``build_sampler`` turns a mode, a circuit and an input pattern into a
:class:`Sampler` whose ``draw(rng, size)`` returns a ``(size, M)`` array of
photon counts.  Circuit-level work is done once per sampler: the transfer
matrix and loss SVD, which both :func:`circuit.plan` and the thermal
surrogate read, the lossless copy and the gate tensors and thinned-state
cache for MPS, the exact law for the oracle.
Every source draws whole arrays: ``draw(inputs, rng)`` takes a (rows, M) 0/1
array that marks each row's occupied input modes.  A fixed-input sampler
passes its pattern broadcast to every row; scattershot first draws one
collision-free herald per row into that array.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import circuit as circ
from . import mps, oracle, thermal
from .errors import CapacityError, ModelViolationError, ResampleSignal
from .rng import RandomStream

__all__ = ["MODES", "Sampler", "ThermalSource", "MPSSource", "build_sampler"]

MODES = ("auto", "thermal", "mps", "oracle", "scattershot")


# Redraw rounds for MPS rows whose chain-rule prefix underflowed.
RESAMPLE_ROUNDS = 8


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
    """Thermal surrogate of one circuit, drawn for any set of occupied input modes.

    The largest transmission of the loss SVD becomes the thermal parameter of
    every input; the residual matrix carries the rest of the loss.
    """

    def __init__(self, decomposition: circ.LossDecomposition):
        self.residual = None
        if decomposition.transmissions.max() == 0.0:
            return  # fully blocking circuit: every input is absorbed
        factored = circ.factor_nonuniform(decomposition)
        self.params = thermal.ThermalParams(min(factored.mu_max, 1.0 - 1e-9))
        self.residual = factored.residual.reconstruct()

    def draw(self, inputs: np.ndarray, rng: RandomStream) -> np.ndarray:
        if self.residual is None:
            return np.zeros(inputs.shape, dtype=int)
        return thermal.sample_output(self.residual, self.params, inputs, rng)


class MPSSource:
    """Exact MPS sampling of one uniform-loss circuit, for any occupied input modes.

    Each row keeps every input photon with probability tau**depth and samples
    the survivors through the lossless circuit.  Evolved states are cached
    by thinned pattern.  Gate tensors are built at the largest cutoff met so
    far and sliced for smaller ones: a coupler's Fock amplitudes do not
    depend on the cutoff, so the slice equals a build at the smaller cutoff.
    """

    def __init__(self, circuit: circ.LayeredCircuit, max_bond: int):
        self.mu = circuit.uniform_tau() ** circuit.depth  # raises ValueError for mixed loss
        self.lossless = circuit.lossless_copy()
        self.max_bond = max_bond
        self.gates: list = []  # Fock tensor of every coupler at cutoff self.gate_cutoff
        self.gate_cutoff = 0
        self.states: dict = {}  # thinned pattern -> canonical evolved state

    def state(self, pattern: tuple) -> mps.MPSState:
        if pattern not in self.states:
            if len(self.states) >= 4096:
                self.states.clear()  # unbounded pattern variety: keep memory flat
            d = max(1, sum(pattern))
            if d > self.gate_cutoff:
                self.gates, self.gate_cutoff = mps.fock_gates(self.lossless, d), d
            evolved = mps.simulate_circuit(
                self.lossless, pattern, d=d, max_bond=self.max_bond,
                gates=[g[: d + 1, : d + 1, : d + 1, : d + 1] for g in self.gates],
            )
            self.states[pattern] = mps.canonicalize(evolved)
        return self.states[pattern]

    def draw(self, inputs: np.ndarray, rng: RandomStream) -> np.ndarray:
        """Thin every occupied entry at once, then draw each thinned pattern's rows in one call.

        Entries are thinned in row-major order and patterns are visited in
        sorted order, so the rows depend only on ``rng`` and ``inputs``.
        """
        thinned = np.array(inputs, dtype=int)
        thinned[thinned.astype(bool)] = mps.lossy_input_sample(
            np.count_nonzero(thinned), self.mu, rng)
        patterns, which = np.unique(thinned, axis=0, return_inverse=True)
        which = which.reshape(len(thinned))
        for g, pattern in enumerate(patterns):
            rows = np.flatnonzero(which == g)
            thinned[rows] = self._sample(tuple(int(x) for x in pattern), rng, len(rows))
        return thinned

    def _sample(self, pattern: tuple, rng: RandomStream, size: int) -> np.ndarray:
        """Chain-rule rows of one pattern; underflowed rows are redrawn a bounded number of times."""
        state = self.state(pattern)
        out = np.empty((size, self.lossless.modes), dtype=int)
        todo = np.arange(size)
        for _ in range(RESAMPLE_ROUNDS):
            try:
                out[todo] = mps.sample(state, rng, len(todo))
                return out
            except ResampleSignal as signal:
                out[todo] = signal.rows
                todo = todo[signal.bad]
        raise CapacityError(
            f"chain-rule draws for thinned pattern {list(pattern)} still underflow "
            f"after {RESAMPLE_ROUNDS} rounds"
        )


def _zero_one(pattern: tuple, backend: str) -> np.ndarray:
    if any(x > 1 for x in pattern):
        raise ValueError(f"{backend} sampling expects 0/1 input patterns")
    return np.array(pattern, dtype=int)


def _oracle_sampler(circuit: circ.LayeredCircuit, pattern: tuple,
                    decision: circ.SimulationPlan) -> Sampler:
    if circuit.is_lossless():
        dist = oracle.fock_output_distribution(circ.transfer_matrix(circuit), pattern)
    else:
        tau = circuit.uniform_tau()  # raises ValueError for mixed loss
        input_modes = np.flatnonzero(_zero_one(pattern, "lossy oracle"))
        dist = oracle.lossy_exact_distribution(
            circ.transfer_matrix(circuit.lossless_copy()), tau ** circuit.depth,
            len(input_modes), input_modes=input_modes,
        )
    outcomes = np.array(dist.outcomes, dtype=int).reshape(-1, circuit.modes)
    weights = dist.weights / dist.weights.sum()
    return Sampler(
        "oracle", lambda rng, size: outcomes[rng.choice(len(outcomes), size=size, p=weights)],
        decision,
    )


def _herald(modes: int, lam: float, rng: RandomStream) -> np.ndarray:
    """The first collision-free scattershot herald, as a 0/1 input row."""
    for _ in range(100_000):
        herald = thermal.scattershot_herald(modes, lam, rng)
        if herald.max() <= 1:
            return herald
    raise CapacityError("scattershot rejection did not find a collision-free herald")


def _uniform_loss(circuit: circ.LayeredCircuit) -> bool:
    try:
        circuit.uniform_tau()
    except ValueError:
        return False
    return True


def build_sampler(
    mode: str,
    circuit: circ.LayeredCircuit,
    pattern,
    eps: float,
    max_bond: int = mps.DEFAULT_MAX_BOND,
    herald_lambda: float = 0.1,
) -> Sampler:
    """Sampler for ``pattern`` through ``circuit`` in one of :data:`MODES`.

    The pattern is planned with :func:`circuit.plan` on the largest
    transmission of the loss SVD; ``auto`` takes the plan's regime and
    raises :class:`ModelViolationError` when it has none.  ``scattershot``
    heralds a collision-free input per row with squeezing ``herald_lambda``;
    the pattern's plan only steers its thermal-or-MPS inner source.  A
    thermal sampler outside the bound N * mu_max**2 <= eps warns once.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; choose one of {', '.join(MODES)}")
    pattern = tuple(int(x) for x in pattern)
    loss = circ.decompose_losses(circ.transfer_matrix(circuit))
    decision = circ.plan(float(loss.transmissions.max()), sum(pattern), eps,
                         exact_backend=_uniform_loss(circuit))
    if mode == "auto":
        if decision.regime is None:
            raise ModelViolationError(decision.rationale)
        mode = decision.regime
    if mode == "oracle":
        return _oracle_sampler(circuit, pattern, decision)
    if mode == "scattershot":
        regime = decision.regime or "thermal"  # only the thermal source takes mixed loss

        def inputs(rng: RandomStream, size: int) -> np.ndarray:
            heralds = (_herald(circuit.modes, herald_lambda, rng) for _ in range(size))
            return np.fromiter(heralds, dtype=np.dtype((int, circuit.modes)), count=size)
    else:
        regime, row = mode, _zero_one(pattern, mode)

        def inputs(rng: RandomStream, size: int) -> np.ndarray:
            return np.broadcast_to(row, (size, circuit.modes))
    if regime == "thermal":
        source = ThermalSource(loss)
        if not decision.thermal_valid:
            warnings.warn(f"{decision.rationale}; sampling anyway because {mode} mode "
                          "was requested")
    else:
        source = MPSSource(circuit, max_bond)
    return Sampler(regime, lambda rng, size: source.draw(inputs(rng, size), rng), decision)
