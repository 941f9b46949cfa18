"""Layered linear-optical circuits with per-gate loss.

A circuit is an ordered list of D layers acting on M modes.  Each layer holds
a set of two-mode couplers on non-overlapping neighbouring mode pairs, a phase
per mode, and a baseline transmission for modes no coupler touches in that
layer.  Within a layer the couplers act first, then the phases.  Layers are
listed in the order photons traverse them.

:class:`LayeredCircuit` stores the G couplers of all layers as flat arrays
in layer order (a struct of arrays, validated once when it is built):

* ``offsets`` (D+1,): layer l holds couplers ``offsets[l]:offsets[l+1]``
* ``gate_mode``, ``theta``, ``phi``, ``tau`` (G,): each coupler's first
  mode, angles and intensity transmission
* ``phases`` (D, M): each layer's phase per mode
* ``idle_tau`` (D,): each layer's transmission for the modes it leaves idle

:class:`CouplerGate` and :class:`Layer` are plain records for writing a
circuit by hand; :meth:`LayeredCircuit.from_layers` packs them into arrays.

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
from collections import Counter
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import ModelViolationError
from .rng import RandomStream

__all__ = [
    "CouplerGate",
    "Layer",
    "LayeredCircuit",
    "AlgebraicThreshold",
    "SimulationPlan",
    "coupler_blocks",
    "transfer_matrix",
    "decompose_losses",
    "random_brickwork",
    "thermalization_depth",
    "depth_threshold_exponential",
    "depth_threshold_algebraic",
    "plan",
    "circuit_to_json",
    "circuit_from_json",
]

SINGULAR_CLIP_TOLERANCE = 1e-9


class CouplerGate(NamedTuple):
    """Two-mode coupler on neighbouring modes (mode, mode+1)."""

    mode: int
    theta: float
    phi: float = 0.0
    tau: float = 1.0


class Layer(NamedTuple):
    """One circuit layer: disjoint couplers, then per-mode phases.

    ``idle_tau`` is the intensity transmission seen by modes not covered by
    any coupler in this layer (waveguide propagation loss); it defaults to a
    lossless 1.0.
    """

    couplers: tuple[CouplerGate, ...]
    phases: tuple[float, ...]
    idle_tau: float = 1.0


@dataclass(frozen=True, eq=False)
class LayeredCircuit:
    """M modes and D layers of couplers, phases and idle loss, as read-only arrays.

    The module docstring gives the layout.  Building one checks every field
    at once: a wrong shape, a non-finite value, a coupler outside the modes
    or overlapping another in its layer, or a negative transmission raises
    ``ValueError`` naming the field; a transmission above 1 raises
    ``ModelViolationError``.
    """

    modes: int
    offsets: np.ndarray
    gate_mode: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    tau: np.ndarray
    phases: np.ndarray
    idle_tau: np.ndarray

    def __post_init__(self):
        if self.modes < 1:
            raise ValueError("circuit needs at least one mode")
        offsets = np.array(self.offsets, dtype=np.intp)
        if offsets.ndim != 1 or not offsets.size or offsets[0] or (np.diff(offsets) < 0).any():
            raise ValueError("circuit offsets must start at 0 and never decrease")
        depth, gates = offsets.size - 1, int(offsets[-1])
        shapes = {"offsets": (depth + 1,), "gate_mode": (gates,), "theta": (gates,),
                  "phi": (gates,), "tau": (gates,), "phases": (depth, self.modes),
                  "idle_tau": (depth,)}
        for name, shape in shapes.items():
            value = np.array(getattr(self, name),
                             dtype=np.intp if name in ("offsets", "gate_mode") else float)
            if value.size == 0 == math.prod(shape):
                value = value.reshape(shape)
            if value.shape != shape:
                raise ValueError(f"circuit {name} has shape {value.shape}, need {shape}")
            if value.dtype == float and not np.isfinite(value).all():
                at = tuple(np.argwhere(~np.isfinite(value))[0])
                raise ValueError(f"circuit {name}[{', '.join(map(str, at))}] is "
                                 f"{value[at]}; circuit values must be finite")
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        mode = self.gate_mode
        outside = (mode < 0) | (mode + 1 >= self.modes)
        if outside.any():
            raise ValueError(
                f"coupler at mode {mode[outside][0]} does not fit in {self.modes} modes")
        # Layer-major keys: two couplers of one layer overlap iff their keys
        # differ by less than 2, and keys of different layers always differ
        # by at least 2 (a last mode <= M-2 against a next first mode >= 0).
        # Couplers listed in mode order (every brickwork) skip the sort: its
        # first call alone raised a small run's peak RSS by about 0.2 MiB.
        key = self.gate_layer() * self.modes + mode
        if (np.diff(key) < 2).any():
            key = np.sort(key)
            clash = np.flatnonzero(np.diff(key) < 2)
            if clash.size:
                layer, k = divmod(int(key[clash[0] + 1]), self.modes)
                raise ValueError(f"overlapping couplers in layer {layer} at mode {k}")
        for name, tau in (("gate transmission", self.tau), ("idle transmission", self.idle_tau)):
            if (tau > 1.0).any():
                raise ModelViolationError(
                    f"{name} {tau.max()} > 1 would amplify; the model is passive")
            if (tau < 0.0).any():
                raise ValueError(f"{name} must lie in [0, 1], got {tau.min()}")

    @classmethod
    def from_layers(cls, modes: int, layers) -> "LayeredCircuit":
        """Pack a sequence of :class:`Layer` records into one circuit."""
        for idx, layer in enumerate(layers):
            if len(layer.phases) != modes:
                raise ValueError(f"layer {idx} has {len(layer.phases)} phases for {modes} modes")
        gates = [g for layer in layers for g in layer.couplers]
        mode, theta, phi, tau = zip(*gates) if gates else ((),) * 4
        return cls(modes, list(accumulate((len(layer.couplers) for layer in layers), initial=0)),
                   mode, theta, phi, tau, [layer.phases for layer in layers],
                   [layer.idle_tau for layer in layers])

    @property
    def depth(self) -> int:
        return len(self.offsets) - 1

    def gate_layer(self) -> np.ndarray:
        """Layer index of every coupler, shape (G,)."""
        return np.repeat(np.arange(self.depth), np.diff(self.offsets))

    def lossless_copy(self) -> "LayeredCircuit":
        """Same interference pattern with every transmission set to 1."""
        return replace(self, tau=np.ones_like(self.tau), idle_tau=np.ones_like(self.idle_tau))

    def uniform_mu(self) -> float | None:
        """Every mode's transmission under uniform loss, or None for mixed loss.

        Loss is uniform when each layer has one transmission t_l: its gates
        all equal its ``idle_tau``, or, with no idle mode, equal each other.
        Such loss commutes with every coupler, so each mode sees the product
        of the t_l, taken as ``t**k`` over the distinct t (exactly
        ``tau**depth`` when all layers share one tau).
        """
        layer_tau = self.idle_tau.copy()
        full = 2 * np.diff(self.offsets) == self.modes  # layers with no idle mode
        layer_tau[full] = self.tau[self.offsets[:-1][full]]
        if (self.tau != layer_tau[self.gate_layer()]).any():
            return None
        return math.prod((t**k for t, k in Counter(layer_tau.tolist()).items()), start=1.0)


def coupler_blocks(theta, phi) -> np.ndarray:
    """Lossless 2x2 unitary block of every coupler: shape (G, 2, 2) for (G,) angles."""
    theta = np.asarray(theta, dtype=float)
    e = np.exp(1j * np.asarray(phi, dtype=float))
    s = np.sin(theta)
    blocks = np.empty(theta.shape + (2, 2), dtype=complex)
    blocks[..., 0, 0] = blocks[..., 1, 1] = np.cos(theta)
    blocks[..., 0, 1] = e * s
    blocks[..., 1, 0] = -np.conj(e) * s
    return blocks


def transfer_matrix(circuit: LayeredCircuit, columns=None) -> np.ndarray:
    """Overall transfer matrix mapping input to output amplitudes, or some of its columns.

    Layers are composed in traversal order, so with layers [L1, ..., LD] the
    result is M(LD) @ ... @ M(L1).  Each layer sends row i to
    ``own[i] * row i + other[i] * row partner[i]``: a coupler's rows take
    their 2x2 block (with sqrt(tau) and the phases of its two modes folded
    in), an idle row takes sqrt(idle_tau) times its phase and ``other = 0``.
    The (D, M) coefficients are built in one pass.  ``columns`` (a column
    index of distinct input modes, default all) picks the inputs to
    propagate, so K columns cost O(D * M * K); every entry is computed on its
    own, so the result is bit for bit ``transfer_matrix(circuit)[:, columns]``.
    """
    phase = np.exp(1j * circuit.phases)
    layer, mode = circuit.gate_layer(), circuit.gate_mode
    pairs = mode[:, None] + np.arange(2)
    blocks = coupler_blocks(circuit.theta, circuit.phi)
    blocks *= np.sqrt(circuit.tau)[:, None, None]
    blocks *= phase[layer[:, None], pairs][:, :, None]
    own = np.sqrt(circuit.idle_tau)[:, None] * phase
    own[layer, mode], own[layer, mode + 1] = blocks[:, 0, 0], blocks[:, 1, 1]
    other = np.zeros_like(phase)
    other[layer, mode], other[layer, mode + 1] = blocks[:, 0, 1], blocks[:, 1, 0]
    partner = np.indices(phase.shape)[1]
    partner[layer, mode], partner[layer, mode + 1] = mode + 1, mode
    a = np.eye(circuit.modes, dtype=complex)
    if columns is not None:
        a = a[:, columns]
    for l in range(circuit.depth):
        mixed = a[partner[l]]
        mixed *= other[l, :, None]
        a *= own[l, :, None]
        a += mixed
    return a


def decompose_losses(a: np.ndarray) -> np.ndarray:
    """Transmissions of a transfer matrix: its squared singular values, largest first.

    A = V diag(sqrt(mu)) W with V, W unitary; only mu is kept.  The thermal
    surrogate reads its largest entry mu_max and the matrix A / sqrt(mu_max).

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
    s = np.linalg.svd(a, compute_uv=False)
    if np.any(s > 1.0 + SINGULAR_CLIP_TOLERANCE):
        raise ModelViolationError(
            f"singular value {s.max():.12g} exceeds 1: not a passive circuit"
        )
    np.clip(s, None, 1.0, out=s)
    return s * s


def random_brickwork(
    modes: int, depth: int, tau: float, rng: RandomStream
) -> LayeredCircuit:
    """Brick-pattern circuit of Haar-random couplers with uniform loss.

    Odd layers start at mode 0, even layers at mode 1.  Every gate carries
    intensity transmission ``tau`` and so does idle propagation, hence each
    mode sees sqrt(tau) in amplitude per layer and the total per-mode
    transmission is tau**depth.  Each coupler is drawn in its own
    parameters, diag(e^{ia}, e^{ib}) @ coupler(theta, phi) with
    cos(theta)**2 ~ U(0, 1) and phi, a, b ~ U(0, 2 pi): the Euler-angle form
    of Haar measure on SU(2) times a uniform global phase, so the block is
    Haar on U(2).  Its phases a, b join the layer's phase vector (phases act
    after couplers).  The four uniforms are drawn gate-major, as one (G, 4)
    array, so the circuit equals one drawn gate by gate and a deeper circuit
    from the same stream extends a shallower one layer by layer.
    """
    if modes < 1:
        raise ValueError("need at least one mode")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"transmission must lie in [0, 1], got {tau}")
    # layer l starts at mode l % 2 and holds (modes - l % 2) // 2 couplers
    l = np.arange(depth + 1)
    offsets = (l + 1) // 2 * (modes // 2) + l // 2 * ((modes - 1) // 2)
    layer = np.repeat(l[:-1], np.diff(offsets))
    gate_mode = layer % 2 + 2 * (np.arange(offsets[-1]) - offsets[layer])
    cos2, phi, pa, pb = rng.random((int(offsets[-1]), 4)).T
    phases = np.zeros((depth, modes))
    phases[layer, gate_mode] = 2 * math.pi * pa
    phases[layer, gate_mode + 1] = 2 * math.pi * pb
    return LayeredCircuit(modes, offsets, gate_mode, np.arccos(np.sqrt(cos2)), 2 * math.pi * phi,
                          np.full(len(cos2), tau), phases, np.full(depth, tau))


# ---------------------------------------------------------------------------
# simulability thresholds
# ---------------------------------------------------------------------------


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
    when that ratio is below 2.  Past the float range D* is infinite.
    """
    if d_len <= 0 or beta <= 0:
        raise ValueError("decay length and exponent must be positive")
    if k <= 0 or eps <= 0:
        raise ValueError("density coefficient and error budget must be positive")
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"density exponent must lie in (0, 1], got {gamma}")
    if modes < 1:
        raise ValueError("mode count must be >= 1")
    try:
        scale = (2.0 * k * modes**gamma / eps) ** (1.0 / (2.0 * beta))
    except OverflowError:
        scale = math.inf
    depth = d_len * (scale - 1.0)
    return AlgebraicThreshold(depth=max(0.0, depth), gamma_beta_ratio=gamma / beta)


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimulationPlan:
    """The regime for N photons and the error ledger behind it.

    ``regime`` is "thermal", "mps", or None when neither backend is valid.
    ``photons`` is N, or the mean photon number of a mixture of inputs such
    as scattershot's heralds.  ``surrogate_error`` = N * mu_max**2 bounds the
    total-variation error of the thermal surrogate; ``thermal_valid`` is
    whether it fits in ``eps``, which is exactly when :func:`plan` chose
    "thermal".
    """

    regime: str | None
    mu_max: float
    photons: float
    rationale: str

    @property
    def surrogate_error(self) -> float:
        return self.photons * self.mu_max * self.mu_max

    @property
    def thermal_valid(self) -> bool:
        return self.regime == "thermal"


def plan(mu_max: float, photons: float, eps: float, exact_backend: bool) -> SimulationPlan:
    """Choose the regime from the largest loss-SVD transmission mu_max.

    Thermal when N * mu_max**2 <= eps (boundary inclusive); otherwise exact
    tensor-network evolution when ``exact_backend`` (uniform loss) is
    available; otherwise no regime, and the rationale says why.  Raises
    ``ValueError`` for mu_max outside [0, 1], N < 0 or eps <= 0.
    """
    if not 0.0 <= mu_max <= 1.0:
        raise ValueError(f"transmission must lie in [0, 1], got {mu_max}")
    if photons < 0:
        raise ValueError("photon number must be >= 0")
    if eps <= 0:
        raise ValueError("error budget must be positive")
    surrogate_error = photons * mu_max * mu_max
    thermal_valid = surrogate_error <= eps
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
    return SimulationPlan(regime, mu_max, photons, f"{ledger}: {why}")


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def circuit_to_json(circuit: LayeredCircuit) -> str:
    """Serialize a circuit; floats round-trip bit-exactly through json."""
    gates = [
        {"mode": k, "theta": theta, "phi": phi, "tau": tau}
        for k, theta, phi, tau in zip(circuit.gate_mode.tolist(), circuit.theta.tolist(),
                                      circuit.phi.tolist(), circuit.tau.tolist())
    ]
    offsets = circuit.offsets.tolist()
    layers = []
    for l, (phases, idle_tau) in enumerate(zip(circuit.phases.tolist(), circuit.idle_tau.tolist())):
        entry: dict = {"phases": phases, "couplers": gates[offsets[l]:offsets[l + 1]]}
        if idle_tau != 1.0:
            entry["idle_tau"] = idle_tau
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
    if type(modes) is not int or modes < 1:
        raise ValueError(f'"modes" must be a positive integer, got {modes!r}')
    layers = []
    for idx, entry in enumerate(_json_list(doc["layers"], '"layers"')):
        if not isinstance(entry, dict) or "phases" not in entry or "couplers" not in entry:
            raise ValueError(f'layer {idx} must be an object with "phases" and "couplers"')
        gates, where = [], f"layer {idx} coupler"
        for g in _json_list(entry["couplers"], f'layer {idx} "couplers"'):
            try:
                if type(g["mode"]) is not int:
                    raise TypeError("coupler mode must be an integer")
                gates.append(CouplerGate(g["mode"], _json_float(g["theta"], f'{where} "theta"'),
                                         _json_float(g.get("phi", 0.0), f'{where} "phi"'),
                                         _json_float(g.get("tau", 1.0), f'{where} "tau"')))
            except (KeyError, TypeError) as exc:
                raise ValueError(f"bad coupler in layer {idx}: {g!r}") from exc
        phases = [_json_float(p, f'layer {idx} "phases" entry')
                  for p in _json_list(entry["phases"], f'layer {idx} "phases"')]
        layers.append(Layer(gates, phases,
                            _json_float(entry.get("idle_tau", 1.0), f'layer {idx} "idle_tau"')))
    return LayeredCircuit.from_layers(modes, layers)


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"circuit {what} must be a list, got {value!r}")
    return value


def _json_float(value, what: str) -> float:
    """A JSON number as a float: ``true`` or ``"0.5"`` is an error, not 1.0 or 0.5."""
    if type(value) not in (int, float):
        raise ValueError(f"circuit {what} must be a number, got {value!r}")
    return float(value)
