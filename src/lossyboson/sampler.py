"""One sampler interface over the thermal, MPS and oracle backends.

``build_sampler`` turns a mode, a circuit and an input pattern into a
:class:`Sampler` whose ``draw(rng, size)`` returns a ``(size, M)`` array of
photon counts.  Circuit-level work is done once per sampler: the transfer
matrix and loss SVD for the thermal surrogate, the lossless copy and the
thinned-state cache for MPS, the exact law for the oracle.  A fixed-input
sampler binds the occupied input modes once; scattershot draws a herald per
row and feeds its occupied modes to the same circuit-level source.
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

__all__ = ["MODES", "Sampler", "ThermalSource", "MPSSource", "choose_regime", "build_sampler"]

MODES = ("auto", "thermal", "mps", "oracle", "scattershot")


@dataclass(frozen=True)
class Sampler:
    """Photon-count rows from one circuit; ``regime`` is the tag for each row."""

    regime: str
    modes: int
    row: Callable[[RandomStream], np.ndarray]

    def draw(self, rng: RandomStream, size: int) -> np.ndarray:
        """``size`` rows drawn one after another from ``rng``, as a (size, M) int array."""
        return np.array([self.row(rng) for _ in range(size)], dtype=int).reshape(size, self.modes)


def choose_regime(circuit: circ.LayeredCircuit, eps: float, photons: int) -> str:
    """The ``auto`` policy: the planner's regime, thermal for non-uniform loss."""
    try:
        tau = circuit.uniform_tau()
    except ValueError:
        return "thermal"  # non-uniform loss: only the thermal path applies
    params = circ.PlanParameters(
        modes=circuit.modes, depth=circuit.depth, tau=tau, eps=eps, photons=photons,
    )
    return circ.plan(params).regime


class ThermalSource:
    """Thermal surrogate of one circuit, drawn for any set of occupied input modes.

    The largest transmission of the loss SVD becomes the thermal parameter of
    every input; the residual matrix carries the rest of the loss.
    """

    def __init__(self, circuit: circ.LayeredCircuit):
        self.modes, self.residual = circuit.modes, None
        decomposition = circ.decompose_losses(circ.transfer_matrix(circuit))
        if decomposition.transmissions.max() == 0.0:
            return  # fully blocking circuit: every input is absorbed
        factored = circ.factor_nonuniform(decomposition)
        self.params = thermal.ThermalParams(min(factored.mu_max, 1.0 - 1e-9))
        self.residual = factored.residual.reconstruct()

    def draw(self, input_modes: np.ndarray, rng: RandomStream) -> np.ndarray:
        if self.residual is None:
            return np.zeros(self.modes, dtype=int)
        return thermal.sample_output(
            self.residual, self.params, len(input_modes), rng, input_modes
        )

    def check_surrogate(self, photons: int, eps: float, auto: bool) -> None:
        """Refuse (``auto``) or warn when N * mu_max**2 exceeds eps; vacuum always passes."""
        mu = self.params.lam if self.residual is not None else 0.0
        if photons == 0 or circ.simulability_condition(mu, photons, eps):
            return
        reason = (f"thermal surrogate outside its bound: N*mu_max^2 = {photons * mu * mu:.4g} "
                  f"exceeds eps = {eps:.4g}")
        if auto:
            raise ModelViolationError(reason + "; no exact backend takes mixed loss")
        warnings.warn(reason + "; sampling anyway because thermal mode was requested")


class MPSSource:
    """Exact MPS sampling of one uniform-loss circuit, for any occupied input modes.

    Each draw keeps every input photon with probability tau**depth and samples
    the survivors through the lossless circuit; evolved states are cached by
    thinned pattern.
    """

    def __init__(self, circuit: circ.LayeredCircuit, max_bond: int):
        self.mu = circuit.uniform_tau() ** circuit.depth  # raises ValueError for mixed loss
        self.lossless = circuit.lossless_copy()
        self.max_bond = max_bond
        self.cache: dict = {}

    def draw(self, input_modes: np.ndarray, rng: RandomStream) -> np.ndarray:
        keep = mps.lossy_input_sample(len(input_modes), self.mu, rng)
        thinned = np.zeros(self.lossless.modes, dtype=int)
        thinned[input_modes[keep.astype(bool)]] = 1
        key = tuple(int(x) for x in thinned)
        if key not in self.cache:
            if len(self.cache) >= 4096:
                self.cache.clear()  # unbounded pattern variety: keep memory flat
            state = mps.simulate_circuit(self.lossless, key, max_bond=self.max_bond)
            self.cache[key] = mps.canonicalize(state)
        while True:
            try:
                return np.array(mps.sample(self.cache[key], rng), dtype=int)
            except ResampleSignal:
                continue


def _occupied(pattern: tuple, backend: str) -> np.ndarray:
    if any(x > 1 for x in pattern):
        raise ValueError(f"{backend} sampling expects 0/1 input patterns")
    return np.flatnonzero(np.asarray(pattern))


def _oracle_sampler(circuit: circ.LayeredCircuit, pattern: tuple) -> Sampler:
    if circuit.is_lossless():
        dist = oracle.fock_output_distribution(circ.transfer_matrix(circuit), pattern)
    else:
        tau = circuit.uniform_tau()  # raises ValueError for mixed loss
        input_modes = _occupied(pattern, "lossy oracle")
        dist = oracle.lossy_exact_distribution(
            circ.transfer_matrix(circuit.lossless_copy()), tau ** circuit.depth,
            len(input_modes), input_modes=input_modes,
        )
    outcomes = np.array(dist.outcomes, dtype=int)
    weights = dist.weights / dist.weights.sum()
    return Sampler(
        "oracle", circuit.modes,
        lambda rng: outcomes[int(rng.choice(len(outcomes), p=weights))],
    )


def _herald_modes(modes: int, lam: float, rng: RandomStream) -> np.ndarray:
    """Occupied modes of the first collision-free scattershot herald."""
    for _ in range(100_000):
        herald = thermal.scattershot_herald(modes, lam, rng)
        if herald.max() <= 1:
            return np.flatnonzero(herald)
    raise CapacityError("scattershot rejection did not find a collision-free herald")


def build_sampler(
    mode: str,
    circuit: circ.LayeredCircuit,
    pattern,
    eps: float,
    max_bond: int = mps.DEFAULT_MAX_BOND,
    herald_lambda: float = 0.1,
) -> Sampler:
    """Sampler for ``pattern`` through ``circuit`` in one of :data:`MODES`.

    ``auto`` follows :func:`choose_regime`.  ``scattershot`` heralds a
    collision-free input per row with squeezing ``herald_lambda``; the
    pattern's photon number only steers its thermal-or-MPS inner source.
    A fixed-input thermal sampler checks its surrogate bound once.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; choose one of {', '.join(MODES)}")
    pattern = tuple(int(x) for x in pattern)
    auto = mode == "auto"
    if auto:
        mode = choose_regime(circuit, eps, sum(pattern))
    if mode == "oracle":
        return _oracle_sampler(circuit, pattern)
    if mode == "scattershot":
        regime = choose_regime(circuit, eps, max(sum(pattern), 1))
    else:
        regime, input_modes = mode, _occupied(pattern, mode)
    source = ThermalSource(circuit) if regime == "thermal" else MPSSource(circuit, max_bond)
    if mode == "scattershot":
        return Sampler(regime, circuit.modes, lambda rng: source.draw(
            _herald_modes(circuit.modes, herald_lambda, rng), rng))
    if regime == "thermal":
        source.check_surrogate(len(input_modes), eps, auto)
    return Sampler(regime, circuit.modes, lambda rng: source.draw(input_modes, rng))
