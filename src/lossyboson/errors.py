"""Exception types shared across the package.

Plain ``ValueError`` is used for malformed arguments (wrong shapes, values out
of range).  The classes below mark conditions a caller may want to handle
separately from bad input.
"""

__all__ = [
    "ModelViolationError",
    "CapacityError",
    "ResampleSignal",
]


class ModelViolationError(ValueError):
    """The supplied matrix or state breaks a physical constraint.

    Raised e.g. when a transfer matrix has a singular value above 1 + 1e-9,
    i.e. it amplifies instead of attenuating.
    """


class CapacityError(RuntimeError):
    """A resource ceiling would be exceeded (never truncate silently).

    Raised by the brute-force oracle beyond its photon/mode caps, by the
    tensor-network evolution when the bond dimension would pass the configured
    maximum, by the MPS sampler when chain-rule draws keep underflowing after
    a fixed number of redraws, and by the thermal constellation when the
    required order is beyond the supported quadrature size.
    """


class ResampleSignal(RuntimeError):
    """Some draws became numerically untrustworthy and should be retried.

    Raised by the chain-rule sampler if a row's accumulated prefix
    probability underflows (< 1e-300).  ``rows`` holds every drawn row and
    ``bad`` is the boolean mask of the rows to redraw.
    """

    def __init__(self, message: str, rows, bad):
        super().__init__(message)
        self.rows, self.bad = rows, bad
