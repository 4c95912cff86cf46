"""Lightweight phase timers.

:class:`PhaseTimers` -- named accumulating wall-clock timers, cheap
enough to leave compiled in.  The engine uses one around its
predraw/pass phases when profiling is enabled (two ``perf_counter``
calls per window); anything else can use :meth:`PhaseTimers.phase` as a
context manager.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Optional

__all__ = ["PhaseTimers"]


class PhaseTimers:
    """Named accumulating wall-clock timers (seconds + call counts)."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: compute backend that executed each phase, when reported --
        #: lets profiles distinguish NumPy vs JIT time (see
        #: :mod:`repro.simulation.backends`)
        self.backends: Dict[str, str] = {}

    def add(self, name: str, dt: float, backend: Optional[str] = None) -> None:
        """Accumulate ``dt`` seconds under ``name``.

        ``backend`` optionally labels which compute backend executed
        the phase; the label rides along in :meth:`as_dict`.
        """
        self.seconds[name] = self.seconds.get(name, 0.0) + dt
        self.calls[name] = self.calls.get(name, 0) + 1
        if backend is not None:
            self.backends[name] = backend

    @contextmanager
    def phase(self, name: str, backend: Optional[str] = None):
        """Context manager timing one block under ``name``."""
        t0 = perf_counter()
        try:
            yield self
        finally:
            self.add(name, perf_counter() - t0, backend=backend)

    def merge(self, other: "PhaseTimers") -> None:
        """Fold another timer set into this one."""
        for name, dt in other.seconds.items():
            self.seconds[name] = self.seconds.get(name, 0.0) + dt
            self.calls[name] = self.calls.get(name, 0) + other.calls[name]
        self.backends.update(other.backends)

    def reset(self) -> None:
        """Drop all accumulated timings."""
        self.seconds.clear()
        self.calls.clear()
        self.backends.clear()

    def total(self) -> float:
        """Sum of all phase times in seconds."""
        return sum(self.seconds.values())

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready ``{phase: {"seconds": s, "calls": n[, "backend": b]}}``.

        The ``backend`` key appears only for phases whose executor
        reported one, so older consumers of the two-key layout keep
        working unchanged.
        """
        out: Dict[str, Dict[str, object]] = {}
        for name in sorted(self.seconds):
            entry: Dict[str, object] = {
                "seconds": self.seconds[name],
                "calls": self.calls[name],
            }
            if name in self.backends:
                entry["backend"] = self.backends[name]
            out[name] = entry
        return out

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}={self.seconds[name]:.3f}s/{self.calls[name]}"
            for name in sorted(self.seconds)
        )
        return f"PhaseTimers({parts})"
