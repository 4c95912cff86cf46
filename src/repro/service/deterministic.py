"""Constant service time (paper Sections III-A and III-D-1).

"Constant service time is usually the appropriate assumption for
interconnection networks realized with synchronous logic."  A message of
``m`` packets transmitted on consecutive cycles occupies the output port
for exactly ``m`` cycles, so ``U(z) = z^m`` with

.. math::

    U'(1) = m, \\quad U''(1) = m(m-1), \\quad U'''(1) = m(m-1)(m-2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.series.pgf import PGF
from repro.service.base import ServiceProcess, is_int

__all__ = ["DeterministicService"]


@dataclass(frozen=True)
class DeterministicService(ServiceProcess):
    """Service takes exactly ``m`` cycles.

    Parameters
    ----------
    m:
        Service time (packets per message), ``m >= 1``.
    """

    m: int

    def __post_init__(self) -> None:
        if not is_int(self.m) or self.m < 1:
            raise ModelError(f"constant service time must be an int >= 1, got {self.m!r}")
        object.__setattr__(self, "m", int(self.m))

    def pgf(self) -> PGF:
        return PGF.degenerate(self.m)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.m, dtype=np.int64)

    def __str__(self) -> str:
        return f"DeterministicService(m={self.m})"
