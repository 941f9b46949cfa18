"""Layered linear-optical circuits with per-gate loss.

A circuit is an ordered list of layers acting on M modes.  Each layer holds a
set of two-mode couplers on non-overlapping neighbouring mode pairs, a phase
per mode, and a baseline transmission for modes no coupler touches in that
layer.  Within a layer the couplers act first, then the phases.  Layers are
listed in the order photons traverse them.

A coupler on modes (k, k+1) with angles (theta, phi) mixes the pair by

    [[cos(theta),            exp(i*phi) * sin(theta)],
     [-exp(-i*phi)*sin(theta), cos(theta)           ]]

scaled by sqrt(tau), where tau is the gate's intensity transmission.  The
circuit's transfer matrix A maps input coherent amplitudes to output ones
(beta = A @ alpha) and satisfies A A^dagger <= I.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import DegenerateCircuitError, ModelViolationError
from .rng import RandomStream

__all__ = [
    "CouplerGate",
    "Layer",
    "LayeredCircuit",
    "LossDecomposition",
    "NonuniformFactorization",
    "AlgebraicThreshold",
    "SimulationPlan",
    "transfer_matrix",
    "decompose_losses",
    "factor_nonuniform",
    "random_brickwork",
    "simulability_condition",
    "thermalization_depth",
    "depth_threshold_exponential",
    "depth_threshold_algebraic",
    "plan",
    "circuit_to_json",
    "circuit_from_json",
    "save_circuit",
    "load_circuit",
]

SINGULAR_CLIP_TOLERANCE = 1e-9


@dataclass(frozen=True)
class CouplerGate:
    """Two-mode coupler on neighbouring modes (mode, mode+1)."""

    mode: int
    theta: float
    phi: float = 0.0
    tau: float = 1.0

    def __post_init__(self):
        if self.mode < 0:
            raise ValueError(f"gate mode must be >= 0, got {self.mode}")
        if self.tau > 1.0:
            raise ModelViolationError(
                f"gate transmission {self.tau} > 1 would amplify; the model is passive"
            )
        if self.tau < 0.0:
            raise ValueError(f"gate transmission must lie in [0, 1], got {self.tau}")

    @property
    def block(self) -> np.ndarray:
        """Lossless 2x2 unitary block of the coupler."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        e = np.exp(1j * self.phi)
        return np.array([[c, e * s], [-np.conj(e) * s, c]], dtype=complex)


@dataclass(frozen=True)
class Layer:
    """One circuit layer: disjoint couplers, then per-mode phases.

    ``idle_tau`` is the intensity transmission seen by modes not covered by
    any coupler in this layer (waveguide propagation loss); it defaults to a
    lossless 1.0.
    """

    couplers: tuple[CouplerGate, ...]
    phases: tuple[float, ...]
    idle_tau: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "couplers", tuple(self.couplers))
        object.__setattr__(self, "phases", tuple(float(p) for p in self.phases))
        if self.idle_tau > 1.0:
            raise ModelViolationError(
                f"idle transmission {self.idle_tau} > 1 would amplify; the model is passive"
            )
        if self.idle_tau < 0.0:
            raise ValueError(f"idle transmission must lie in [0, 1], got {self.idle_tau}")
        seen: set[int] = set()
        for g in self.couplers:
            pair = {g.mode, g.mode + 1}
            if seen & pair:
                raise ValueError(f"overlapping couplers in layer at mode {g.mode}")
            seen |= pair

    def covered_modes(self) -> set[int]:
        out: set[int] = set()
        for g in self.couplers:
            out |= {g.mode, g.mode + 1}
        return out


@dataclass(frozen=True)
class LayeredCircuit:
    modes: int
    layers: tuple[Layer, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.modes < 1:
            raise ValueError("circuit needs at least one mode")
        for layer in self.layers:
            if len(layer.phases) != self.modes:
                raise ValueError(
                    f"layer has {len(layer.phases)} phases for {self.modes} modes"
                )
            for g in layer.couplers:
                if g.mode + 1 >= self.modes:
                    raise ValueError(
                        f"coupler at mode {g.mode} does not fit in {self.modes} modes"
                    )

    @property
    def depth(self) -> int:
        return len(self.layers)

    def is_lossless(self) -> bool:
        return all(
            l.idle_tau == 1.0 and all(g.tau == 1.0 for g in l.couplers)
            for l in self.layers
        )

    def lossless_copy(self) -> "LayeredCircuit":
        """Same interference pattern with every transmission set to 1."""
        layers = tuple(
            Layer(
                couplers=tuple(
                    CouplerGate(g.mode, g.theta, g.phi, 1.0) for g in l.couplers
                ),
                phases=l.phases,
                idle_tau=1.0,
            )
            for l in self.layers
        )
        return LayeredCircuit(self.modes, layers)

    def uniform_tau(self) -> float:
        """The common transmission if every gate and idle path shares one, else error."""
        taus = {l.idle_tau for l in self.layers}
        taus |= {g.tau for l in self.layers for g in l.couplers}
        if not taus:
            return 1.0
        if len(taus) > 1:
            raise ValueError(f"circuit transmissions are not uniform: {sorted(taus)}")
        return taus.pop()


def transfer_matrix(circuit: LayeredCircuit) -> np.ndarray:
    """Overall transfer matrix mapping input to output amplitudes.

    Layers are composed in traversal order, so with layers [L1, ..., LD] the
    result is M(LD) @ ... @ M(L1).  Each layer multiplies the row pairs its
    couplers mix by their 2x2 blocks (phases included) and scales the idle
    rows, so the cost is O(M^2) per layer.
    """
    modes = circuit.modes
    a = np.eye(modes, dtype=complex)
    for layer in circuit.layers:
        phase = np.exp(1j * np.asarray(layer.phases))
        idle = np.ones(modes, dtype=bool)
        if layer.couplers:
            pairs = np.array([g.mode for g in layer.couplers])[:, None] + np.arange(2)
            theta = np.array([g.theta for g in layer.couplers])
            e = np.exp(1j * np.array([g.phi for g in layer.couplers]))
            blocks = np.empty((len(pairs), 2, 2), dtype=complex)
            blocks[:, 0, 0] = blocks[:, 1, 1] = np.cos(theta)
            blocks[:, 0, 1] = e * np.sin(theta)
            blocks[:, 1, 0] = -np.conj(e) * np.sin(theta)
            blocks *= np.sqrt(np.array([g.tau for g in layer.couplers]))[:, None, None]
            blocks *= phase[pairs][:, :, None]
            a[pairs] = blocks @ a[pairs]
            idle[pairs] = False
        a[idle] *= (math.sqrt(layer.idle_tau) * phase[idle])[:, None]
    return a


@dataclass(frozen=True)
class LossDecomposition:
    """a = v @ diag(sqrt(transmissions)) @ w with v, w unitary."""

    v: np.ndarray
    transmissions: np.ndarray
    w: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.v * np.sqrt(self.transmissions)) @ self.w


def decompose_losses(a: np.ndarray) -> LossDecomposition:
    """Split a transfer matrix into interferometer / loss / interferometer.

    Raises
    ------
    ModelViolationError
        If any singular value exceeds 1 + 1e-9 (the matrix amplifies).
        Singular values in (1, 1 + 1e-9] are treated as rounding dirt and
        clipped to exactly 1.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"transfer matrix must be square, got shape {a.shape}")
    v, s, w = np.linalg.svd(a, full_matrices=False)
    if np.any(s > 1.0 + SINGULAR_CLIP_TOLERANCE):
        raise ModelViolationError(
            f"singular value {s.max():.12g} exceeds 1: not a passive circuit"
        )
    np.clip(s, None, 1.0, out=s)
    return LossDecomposition(v=v, transmissions=s * s, w=w)


@dataclass(frozen=True)
class NonuniformFactorization:
    """Uniform loss floor pulled out of a non-uniform decomposition."""

    mu_max: float
    residual: LossDecomposition


def factor_nonuniform(dec: LossDecomposition) -> NonuniformFactorization:
    """Factor out the largest transmission as a uniform input-side loss.

    The residual decomposition has transmissions mu_i / mu_max, so its
    largest residual transmission is exactly 1 and the original matrix is
    recovered as residual @ (sqrt(mu_max) * I).
    """
    mu = np.asarray(dec.transmissions, dtype=float)
    mu_max = float(mu.max()) if mu.size else 0.0
    if mu_max <= 0.0:
        raise DegenerateCircuitError("all transmissions are zero; nothing to factor")
    residual = LossDecomposition(v=dec.v, transmissions=mu / mu_max, w=dec.w)
    return NonuniformFactorization(mu_max=mu_max, residual=residual)


def _bs_params_from_block(u) -> tuple[float, float, float, float]:
    """Exact decomposition u = diag(e^{ia}, e^{ib}) @ coupler(theta, phi).

    ``u`` is a 2x2 unitary as an array or as nested lists of Python complex
    numbers (``array.tolist()``), which index much faster than numpy.
    Returns (theta, phi, a, b).  Valid for any 2x2 unitary; the phases a, b
    belong in the layer's phase vector (phases act after couplers).
    """
    (u00, u01), (u10, u11) = u
    theta = math.atan2(abs(u01), abs(u00))
    if abs(u00) > 1e-12:
        a = math.atan2(u00.imag, u00.real)
        phi = math.atan2(u01.imag, u01.real) - a if abs(u01) > 1e-12 else 0.0
        b = math.atan2(u11.imag, u11.real) if abs(u11) > 1e-12 else (
            math.atan2((-u10).imag, (-u10).real) + phi
        )
    else:
        # fully crossing coupler: cos(theta) = 0, diagonal phases are free
        a = 0.0
        phi = math.atan2(u01.imag, u01.real)
        b = math.atan2((-u10).imag, (-u10).real) + phi
    return theta, phi, a, b


def random_brickwork(
    modes: int, depth: int, tau: float, rng: RandomStream
) -> LayeredCircuit:
    """Brick-pattern circuit of Haar-random couplers with uniform loss.

    Odd layers start at mode 0, even layers at mode 1.  Every gate carries
    intensity transmission ``tau`` and so does idle propagation, hence each
    mode sees sqrt(tau) in amplitude per layer and the total per-mode
    transmission is tau**depth.  All Haar blocks are drawn in one stack, in
    gate order, so the circuit equals one drawn gate by gate.
    """
    if modes < 1:
        raise ValueError("need at least one mode")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"transmission must lie in [0, 1], got {tau}")
    gate_modes = [range(l % 2, modes - 1, 2) for l in range(depth)]
    blocks = iter(numerics.haar_unitary(2, rng, sum(map(len, gate_modes))).tolist())
    layers = []
    for ks in gate_modes:
        phases = [0.0] * modes
        gates = []
        for k in ks:
            theta, phi, pa, pb = _bs_params_from_block(next(blocks))
            gates.append(CouplerGate(mode=k, theta=theta, phi=phi, tau=tau))
            phases[k] += pa
            phases[k + 1] += pb
        layers.append(Layer(couplers=tuple(gates), phases=tuple(phases), idle_tau=tau))
    return LayeredCircuit(modes=modes, layers=tuple(layers))


# ---------------------------------------------------------------------------
# simulability thresholds
# ---------------------------------------------------------------------------


def simulability_condition(mu: float, n: int, eps: float) -> bool:
    """True when transmission mu admits the thermal replacement of n photons.

    The n-photon output distribution is within total-variation eps of the
    thermal surrogate whenever n * mu**2 <= eps, tested as mu <= sqrt(eps / n).
    Vacuum (n = 0) always passes.
    """
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"transmission must lie in [0, 1], got {mu}")
    if n < 0:
        raise ValueError("photon number must be >= 0")
    if eps <= 0:
        raise ValueError("error budget must be positive")
    return n == 0 or mu <= math.sqrt(eps / n)


def thermalization_depth(n: int, eps: float, x: float) -> float:
    """Depth at which per-layer loss x makes N photons thermally simulable.

    Solves tau**D = (1-x)**D <= sqrt(eps/N) for D.  Returns 0 for vacuum
    (N = 0) and infinity when x == 0 (a lossless circuit never thermalizes).
    """
    if n < 0:
        raise ValueError("photon number must be >= 0")
    if eps <= 0:
        raise ValueError("error budget must be positive")
    if not 0.0 <= x < 1.0:
        raise ValueError(f"per-layer loss must lie in [0, 1), got {x}")
    if n == 0:
        return 0.0
    if x == 0.0:
        return math.inf
    return max(0.0, math.log(n / eps) / (2.0 * math.log(1.0 / (1.0 - x))))


def depth_threshold_exponential(
    modes: int, gamma: float, k: float, eps: float, tau: float
) -> float:
    """Simulability depth for photon density N = k * M**gamma, loss tau per layer.

    D* = [gamma*log(M) + log(k/eps) + log(2)] / (2*log(1/tau)) is the paper's
    estimate of the depth beyond which the thermal algorithm is accurate to
    eps.  Infinite when tau == 1.  It is reported, not used to choose a
    regime: :func:`plan` tests the actual N * mu_max**2 against eps.
    """
    if modes < 1:
        raise ValueError("mode count must be >= 1")
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"density exponent must lie in (0, 1], got {gamma}")
    if k <= 0 or eps <= 0:
        raise ValueError("density coefficient and error budget must be positive")
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"transmission must lie in (0, 1], got {tau}")
    if tau == 1.0:
        return math.inf
    num = gamma * math.log(modes) + math.log(k / eps) + math.log(2.0)
    return max(0.0, num / (2.0 * math.log(1.0 / tau)))


@dataclass(frozen=True)
class AlgebraicThreshold:
    """Depth threshold for algebraically decaying loss tau(D) = (d_len/(d_len+D))**beta."""

    depth: float
    gamma_beta_ratio: float

    @property
    def efficient(self) -> bool:
        """Whether the threshold grows slower than sqrt(M), i.e. gamma/beta < 2."""
        return self.gamma_beta_ratio < 2.0


def depth_threshold_algebraic(
    d_len: float, beta: float, k: float, eps: float, gamma: float, modes: int
) -> AlgebraicThreshold:
    """Simulability depth when transmission decays algebraically with depth.

    D* = d_len * [ (2k/eps)**(1/(2 beta)) * M**(gamma/(2 beta)) - 1 ].  The
    report includes gamma/beta; the simulation stays polynomially bounded
    when that ratio is below 2.
    """
    if d_len <= 0 or beta <= 0:
        raise ValueError("decay length and exponent must be positive")
    if k <= 0 or eps <= 0:
        raise ValueError("density coefficient and error budget must be positive")
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"density exponent must lie in (0, 1], got {gamma}")
    if modes < 1:
        raise ValueError("mode count must be >= 1")
    depth = d_len * (
        (2.0 * k / eps) ** (1.0 / (2.0 * beta)) * modes ** (gamma / (2.0 * beta)) - 1.0
    )
    return AlgebraicThreshold(depth=max(0.0, depth), gamma_beta_ratio=gamma / beta)


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimulationPlan:
    """The regime for N photons and the error ledger behind it.

    ``regime`` is "thermal", "mps", or None when neither backend is valid.
    ``surrogate_error`` = N * mu_max**2 is the total-variation error of the
    thermal surrogate; ``thermal_valid`` is whether it fits in ``eps``.
    """

    regime: str | None
    mu_max: float
    photons: int
    surrogate_error: float
    thermal_valid: bool
    rationale: str


def plan(mu_max: float, photons: int, eps: float, exact_backend: bool) -> SimulationPlan:
    """Choose the regime from the largest loss-SVD transmission mu_max.

    Thermal when N * mu_max**2 <= eps (boundary inclusive); otherwise exact
    tensor-network evolution when ``exact_backend`` (uniform loss) is
    available; otherwise no regime, and the rationale says why.
    """
    thermal_valid = simulability_condition(mu_max, photons, eps)
    surrogate_error = photons * mu_max * mu_max
    ledger = (f"N*mu_max^2 = {surrogate_error:.4g} {'<=' if thermal_valid else 'exceeds'} "
              f"eps = {eps:.4g}")
    if thermal_valid:
        regime, why = "thermal", "the photons are within eps of thermal noise"
    else:
        bound = ("unreachable on a lossless circuit" if mu_max >= 1.0 - SINGULAR_CLIP_TOLERANCE
                 else "outside its bound")
        regime = "mps" if exact_backend else None
        why = f"thermal surrogate {bound}; " + (
            "the loss is uniform, so exact tensor-network evolution applies" if exact_backend
            else "no exact backend takes mixed loss")
    return SimulationPlan(regime, mu_max, photons, surrogate_error, thermal_valid,
                          f"{ledger}: {why}")


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def circuit_to_json(circuit: LayeredCircuit) -> str:
    """Serialize a circuit; floats round-trip bit-exactly through json."""
    layers = []
    for layer in circuit.layers:
        entry: dict = {
            "phases": list(layer.phases),
            "couplers": [
                {"mode": g.mode, "theta": g.theta, "phi": g.phi, "tau": g.tau}
                for g in layer.couplers
            ],
        }
        if layer.idle_tau != 1.0:
            entry["idle_tau"] = layer.idle_tau
        layers.append(entry)
    return json.dumps({"modes": circuit.modes, "layers": layers}, indent=2)


def circuit_from_json(text: str) -> LayeredCircuit:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"circuit file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "modes" not in doc or "layers" not in doc:
        raise ValueError('circuit JSON must be an object with "modes" and "layers"')
    modes = doc["modes"]
    if not isinstance(modes, int) or modes < 1:
        raise ValueError(f'"modes" must be a positive integer, got {modes!r}')
    layers = []
    for idx, entry in enumerate(doc["layers"]):
        if not isinstance(entry, dict) or "phases" not in entry or "couplers" not in entry:
            raise ValueError(f'layer {idx} must be an object with "phases" and "couplers"')
        gates = []
        for g in entry["couplers"]:
            try:
                gates.append(
                    CouplerGate(
                        mode=int(g["mode"]),
                        theta=float(g["theta"]),
                        phi=float(g.get("phi", 0.0)),
                        tau=float(g.get("tau", 1.0)),
                    )
                )
            except (KeyError, TypeError) as exc:
                raise ValueError(f"bad coupler in layer {idx}: {g!r}") from exc
        layers.append(
            Layer(
                couplers=tuple(gates),
                phases=tuple(float(p) for p in entry["phases"]),
                idle_tau=float(entry.get("idle_tau", 1.0)),
            )
        )
    return LayeredCircuit(modes=modes, layers=tuple(layers))


def save_circuit(circuit: LayeredCircuit, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(circuit_to_json(circuit))
        fh.write("\n")


def load_circuit(path) -> LayeredCircuit:
    with open(path, "r", encoding="utf-8") as fh:
        return circuit_from_json(fh.read())
