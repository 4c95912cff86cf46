"""Mixture of constant service times (paper Section III-D-2).

"Now suppose there are n service times ``m_1, ..., m_n``, and service
time ``m_i`` occurs with probability ``g_i``.  This will occur when
there are different kinds of requests.  For example, read requests are
likely to have different sizes than write requests."

.. math:: U(z) = \\sum_i g_i z^{m_i},
          \\qquad m = \\sum_i g_i m_i,
          \\qquad U''(1) = \\sum_i m_i (m_i - 1) g_i .
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ModelError
from repro.series.pgf import PGF
from repro.series.polynomial import as_exact
from repro.service.base import ServiceProcess, is_int

__all__ = ["MultiSizeService", "check_size_mix"]


def check_size_mix(sizes: Tuple[int, ...], probabilities: Tuple) -> None:
    """The checks of a size mixture (raises :class:`~repro.errors.ModelError`):
    distinct sizes ``>= 1``, one non-negative probability each, summing
    to one exactly."""
    if len(sizes) != len(probabilities):
        raise ModelError("need one probability per size")
    if not sizes:
        raise ModelError("need at least one size")
    if any(m < 1 for m in sizes):
        raise ModelError(f"sizes must be >= 1, got {sizes}")
    if len(set(sizes)) != len(sizes):
        raise ModelError(f"sizes must be distinct, got {sizes}")
    if any(g < 0 for g in probabilities):
        raise ModelError("probabilities must be non-negative")
    total = sum(as_exact(g) for g in probabilities)
    if total != 1:
        raise ModelError(f"probabilities sum to {total}, expected 1")


@dataclass(frozen=True)
class MultiSizeService(ServiceProcess):
    """Discrete mixture of deterministic service times.

    Parameters
    ----------
    sizes:
        Distinct message sizes ``m_i`` (ints ``>= 1``).
    probabilities:
        Mixing weights ``g_i`` (must sum to one).
    """

    sizes: Tuple[int, ...]
    probabilities: Tuple

    def __init__(self, sizes: Sequence[int], probabilities: Sequence) -> None:
        for m in sizes:
            if not is_int(m):
                raise ModelError(f"sizes must be ints, got {m!r}")
        sizes = tuple(int(m) for m in sizes)
        probs = tuple(as_exact(g) for g in probabilities)
        check_size_mix(sizes, probs)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "probabilities", probs)
        from repro.simulation.sampling import AliasSampler

        object.__setattr__(
            self,
            "_sampler",
            AliasSampler(
                [float(g) for g in probs], values=np.asarray(sizes, dtype=np.int64)
            ),
        )

    def pgf(self) -> PGF:
        return PGF.mixture(
            [PGF.degenerate(m) for m in self.sizes], list(self.probabilities)
        )

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._sampler.sample(rng, size)

    def __str__(self) -> str:
        pairs = ", ".join(f"{m}:{g}" for m, g in zip(self.sizes, self.probabilities, strict=True))
        return f"MultiSizeService({pairs})"
