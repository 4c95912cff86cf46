"""The engine observer protocol and the window events it receives.

An *observer* is a passive event sink attached to a
:class:`~repro.simulation.engine.ClockedEngine` with
:meth:`~repro.simulation.engine.ClockedEngine.add_observer`; any number
compose (tracing, metrics and ad-hoc user hooks side by side).  The
engine evaluates its network a window of cycles at a time
(:mod:`repro.simulation.stagewise`) and, after the last stage of every
window, hands each observer one :class:`WindowEvents`: what every stage
did in those cycles.  Observers may read engine state freely but must
never mutate it, consume randomness, or otherwise perturb the simulated
sample path (the composition tests assert this).

The event arrays are valid during the callback only: the engine writes
the next window's events over them, so an observer copies what it keeps.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

__all__ = ["EngineObserver", "Injections", "StageEvents", "WindowEvents"]


class Injections(NamedTuple):
    """Messages that entered the network in a window, in injection order."""

    cycle: np.ndarray   # injection cycle
    source: np.ndarray  # network input
    port: np.ndarray    # first-stage output queue (global port)
    track: np.ndarray   # tracker slot, -1 = untracked (warm-up or over the limit)


class StageEvents(NamedTuple):
    """What one stage did in one window (all ``int64`` arrays).

    The service starts are the ones *committed* in the window (see
    :mod:`repro.simulation.stagewise`), in the order the statistics
    record them: by cycle, then by port.
    """

    cycle: np.ndarray    # service start cycle
    port: np.ndarray     # global port
    wait: np.ndarray     # start minus queue arrival (the paper's statistic)
    service: np.ndarray  # cycles the port stays busy
    track: np.ndarray
    dropped: np.ndarray  # push cycles of messages a full buffer refused, ascending
    #: the window's injections; stage 0 only, ``None`` at later stages
    injections: Optional[Injections] = None


class WindowEvents(NamedTuple):
    """One window of cycles ``[start, end)``, stage by stage."""

    start: int
    end: int
    #: first cycle whose service starts enter the statistics
    measure_from: int
    stages: Tuple[StageEvents, ...]


class EngineObserver:
    """Base class for engine observers: every callback is a no-op."""

    def on_attach(self, engine) -> None:
        """Called once when attached; ``engine`` is the live engine."""

    def on_detach(self, engine) -> None:
        """Called once when removed from the engine."""

    def on_window(self, window: WindowEvents) -> None:
        """A window of cycles was evaluated; called after its last stage."""
