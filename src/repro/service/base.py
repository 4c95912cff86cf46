"""Abstract interface shared by every service-time model."""

from __future__ import annotations

import abc
from fractions import Fraction
from numbers import Integral

import numpy as np

from repro.series.pgf import PGF

__all__ = ["ServiceProcess", "is_int"]


def is_int(value) -> bool:
    """An integer that is not a bool (``True`` is no message size).

    The one integer check of the model's parameters: services and
    :class:`~repro.simulation.network.NetworkConfig` refuse anything
    else rather than coerce it.  Plain ints take an exact-type test
    before the slower ABC ``isinstance`` checks.
    """
    return type(value) is int or (isinstance(value, Integral) and not isinstance(value, bool))


class ServiceProcess(abc.ABC):
    """Cycles needed to forward one message (i.i.d. across messages)."""

    @abc.abstractmethod
    def pgf(self) -> PGF:
        """The exact PGF ``U(z)`` of the service time."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` i.i.d. service times (int array, values >= 1)."""

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def mean(self) -> Fraction:
        """The mean service time ``m = U'(1)``."""
        return self._cached_pgf().mean()

    def factorial_moment(self, order: int):
        """``U^{(order)}(1)``, the paper's ``U''(1)``, ``U'''(1)``, ..."""
        return self._cached_pgf().factorial_moment(order)

    def variance(self):
        """Variance of the service time."""
        return self._cached_pgf().variance()

    def _cached_pgf(self) -> PGF:
        cached = getattr(self, "_pgf_cache", None)
        if cached is None:
            cached = self.pgf()
            object.__setattr__(self, "_pgf_cache", cached)
        return cached

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def empirical_pgf_check(
        self,
        rng: np.random.Generator,
        n_samples: int = 200_000,
        max_value: int = 64,
    ) -> float:
        """Max absolute deviation between sampled and exact pmf prefix."""
        values = self.sample(rng, n_samples)
        hist = np.bincount(values, minlength=max_value)[:max_value] / n_samples
        exact = np.asarray(self._cached_pgf().pmf(max_value), dtype=float)
        return float(np.abs(hist - exact).max())
