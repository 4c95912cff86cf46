"""Seeding discipline for reproducible simulations.

Every stochastic subsystem (traffic generation, service sampling,
routing) draws from its own :class:`numpy.random.Generator`, spawned
deterministically from one master seed via NumPy's ``SeedSequence``.
This keeps experiments reproducible bit-for-bit while guaranteeing the
streams are statistically independent -- important here because the
paper's analysis *assumes* arrivals and service times are independent,
and a shared stream could silently couple them.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

__all__ = ["make_rng", "spawn_rngs", "DEFAULT_SEED"]

#: Seed used by examples and benchmarks when none is given.
DEFAULT_SEED = 19880101  # the paper's publication year/month


def make_rng(seed: Optional[Union[int, np.random.Generator]] = None) -> np.random.Generator:
    """Return a Generator; pass through if one is already supplied."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


def spawn_rngs(seed: Optional[int], n: int) -> List[np.random.Generator]:
    """``n`` independent generators derived from one master seed."""
    seq = np.random.SeedSequence(DEFAULT_SEED if seed is None else seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]

