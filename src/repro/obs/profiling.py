"""Lightweight phase timers and profiling hooks.

Two instruments, both cheap enough to leave compiled in:

* :class:`PhaseTimers` -- named accumulating wall-clock timers.  The
  engines use one around their predraw/pass phases when profiling is
  enabled (two ``perf_counter`` calls per window); anything else can use
  :meth:`PhaseTimers.phase` as a context manager.
* :func:`profiled` -- a decorator that records a function's wall time
  into the module-global :data:`GLOBAL_TIMERS`, but only while
  :func:`enable_profiling` is active; disabled, the overhead is a
  single module-level flag check.  The analytic transform inversions
  (:meth:`repro.series.pgf.PGF.pmf`) are wrapped with it so slow
  table/figure runs can be attributed to simulation vs analysis.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import wraps
from time import perf_counter
from typing import Dict, Optional

__all__ = [
    "PhaseTimers",
    "GLOBAL_TIMERS",
    "profiled",
    "enable_profiling",
    "disable_profiling",
    "profiling_enabled",
]


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


#: Process-wide timer sink for :func:`profiled` functions.
GLOBAL_TIMERS = PhaseTimers()

_enabled = False


def enable_profiling() -> None:
    """Start recording :func:`profiled` functions into GLOBAL_TIMERS."""
    global _enabled
    _enabled = True


def disable_profiling(reset: bool = False) -> None:
    """Stop recording; optionally clear what was gathered."""
    global _enabled
    _enabled = False
    if reset:
        GLOBAL_TIMERS.reset()


def profiling_enabled() -> bool:
    """Whether :func:`profiled` functions are currently recorded."""
    return _enabled


def profiled(name: Optional[str] = None):
    """Decorator: time calls into :data:`GLOBAL_TIMERS` when enabled.

    ``name`` defaults to the function's qualified name.  While profiling
    is disabled the wrapper is one boolean check.
    """

    def decorate(fn):
        label = name or fn.__qualname__

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not _enabled:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                GLOBAL_TIMERS.add(label, perf_counter() - t0)

        return wrapper

    return decorate
