"""Exception types shared across the package.

Plain ``ValueError`` is used for malformed arguments (wrong shapes, values out
of range).  The classes below mark conditions a caller may want to handle
separately from bad input.
"""

__all__ = [
    "ModelViolationError",
    "CapacityError",
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
    maximum, by ``mps.sample`` when a row's chain-rule draw still underflows
    after ``mps.RESAMPLE_ROUNDS`` draws, and by the thermal constellation
    when the required order is beyond the supported quadrature size.
    """

