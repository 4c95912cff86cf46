"""Lightweight phase timers.

:class:`PhaseTimers` -- named accumulating wall-clock timers, cheap
enough to leave compiled in.  The engine uses one around its
predraw/pass phases when profiling is enabled (two ``perf_counter``
calls per window).
"""

from __future__ import annotations

from typing import Dict

__all__ = ["PhaseTimers"]


class PhaseTimers:
    """Named accumulating wall-clock timers (seconds + call counts)."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    def add(self, name: str, dt: float) -> None:
        """Accumulate ``dt`` seconds under ``name``."""
        self.seconds[name] = self.seconds.get(name, 0.0) + dt
        self.calls[name] = self.calls.get(name, 0) + 1

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready ``{phase: {"seconds": s, "calls": n}}``."""
        return {
            name: {"seconds": self.seconds[name], "calls": self.calls[name]}
            for name in sorted(self.seconds)
        }

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}={self.seconds[name]:.3f}s/{self.calls[name]}"
            for name in sorted(self.seconds)
        )
        return f"PhaseTimers({parts})"
