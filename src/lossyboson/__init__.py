"""Classical simulation of N-photon interference in lossy linear optics.

The package provides three interchangeable sampling backends for
photon-count statistics in layered beam-splitter circuits with per-layer
photon loss, plus the threshold analysis that decides which backend is
accurate where:

* a thermal-replacement sampler for deep, lossy circuits,
* a matrix-product-state sampler for shallow circuits, and
* a brute-force permanent oracle for desk-scale cross-validation.

The top level holds the documented API; lower-level pieces are reached
through their submodules (``lossyboson.thermal``, ``lossyboson.mps``, ...).
"""

from .circuit import CouplerGate, Layer, LayeredCircuit, plan, random_brickwork
from .errors import CapacityError, ModelViolationError
from .rng import make_stream
from .sampler import build_sampler

__version__ = "0.1.0"

__all__ = [
    "build_sampler",
    "make_stream",
    "plan",
    "random_brickwork",
    "LayeredCircuit",
    "Layer",
    "CouplerGate",
    "CapacityError",
    "ModelViolationError",
    "__version__",
]
