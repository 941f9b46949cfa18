"""Random-stream plumbing.

Every stochastic operation in this package takes an explicit
``numpy.random.Generator``.  Nothing reads global RNG state, so a fixed seed
reproduces output bit for bit.  Independent child streams come from
``Generator.spawn``: ``sample`` draws block b of a run from the b-th child of
its root stream, so the bytes depend on the seed and the block size only.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RandomStream", "make_stream"]

# Alias used in signatures throughout the package.
RandomStream = np.random.Generator


def make_stream(seed: int | None = None) -> RandomStream:
    """Create a root random stream from an integer seed (or OS entropy)."""
    return np.random.default_rng(seed)
