"""Message-journey tracing (engine observer).

Attach a :class:`MessageTracer` to the engine to record, per tracked
message, the full itinerary: injection input/cycle, and the (cycle,
port, waiting time) of every stage service start, read from the
engine's window events (:mod:`repro.obs.base`).  Indispensable when a
statistic looks wrong and you need to see *one* message's life instead
of a histogram.

Tracing is scoped by message track id (the same ids the statistics
tracker hands out) and bounded by ``limit``; once every traced journey
has been served at all stages the tracer short-circuits and further
windows cost one boolean check, so it is safe to leave attached on long
runs (the expensive window is only the first ``limit`` journeys).

Example
-------
>>> from repro.simulation.network import NetworkConfig, NetworkSimulator
>>> from repro.simulation.trace import MessageTracer
>>> sim = NetworkSimulator(NetworkConfig(k=2, n_stages=3, p=0.4, seed=1))
>>> tracer = MessageTracer(limit=50)
>>> sim.engine.add_observer(tracer)
>>> _ = sim.run(200, warmup=0)
>>> journey = tracer.journey(0)
>>> journey.stages_served == 3
True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.obs.base import EngineObserver

__all__ = ["StageEvent", "MessageJourney", "MessageTracer"]


@dataclass(frozen=True)
class StageEvent:
    """One service start in a message's life."""

    cycle: int
    stage: int
    port: int
    wait: int


@dataclass
class MessageJourney:
    """Everything recorded about one tracked message."""

    track_id: int
    injected_cycle: Optional[int] = None
    source: Optional[int] = None
    entry_queue: Optional[int] = None
    events: List[StageEvent] = field(default_factory=list)

    @property
    def stages_served(self) -> int:
        """Number of stages at which service started."""
        return len(self.events)

    @property
    def total_wait(self) -> int:
        """Sum of recorded per-stage waits."""
        return sum(e.wait for e in self.events)

    def describe(self) -> str:
        """Human-readable itinerary."""
        lines = [
            f"message {self.track_id}: injected t={self.injected_cycle} "
            f"at input {self.source} -> queue {self.entry_queue}"
        ]
        for e in sorted(self.events, key=lambda e: e.stage):
            lines.append(
                f"  stage {e.stage + 1}: served t={e.cycle} at port {e.port} "
                f"(waited {e.wait})"
            )
        lines.append(f"  total waiting: {self.total_wait}")
        return "\n".join(lines)


class MessageTracer(EngineObserver):
    """Engine observer recording journeys for the first ``limit`` messages.

    ``n_stages`` (learned automatically on attach) lets the tracer tell
    when every traced journey is complete and stop observing; it may be
    given explicitly when the tracer is driven outside an engine.
    """

    def __init__(self, limit: int = 1_000, n_stages: Optional[int] = None) -> None:
        if limit < 1:
            raise SimulationError(f"trace limit must be >= 1, got {limit}")
        self.limit = limit
        self._journeys: Dict[int, MessageJourney] = {}
        self._n_stages = n_stages
        self._completed = 0
        self._done = False

    # -- observer protocol ----------------------------------------------
    def on_attach(self, engine) -> None:
        """Learn the network depth so completion can be detected."""
        self._n_stages = engine.n_stages

    def on_window(self, window) -> None:
        """Record the injections and service starts of traced messages."""
        if self._done:
            return
        injections = window.stages[0].injections
        traced = (injections.track >= 0) & (injections.track < self.limit)
        for t, src, line, tid in zip(*(f[traced].tolist() for f in injections), strict=True):
            self._journeys[tid] = MessageJourney(
                track_id=tid, injected_cycle=t, source=src, entry_queue=line
            )
        for stage, events in enumerate(window.stages):
            traced = (events.track >= 0) & (events.track < self.limit)
            columns = (events.cycle, events.port, events.wait, events.track)
            for t, port, wait, tid in zip(*(f[traced].tolist() for f in columns), strict=True):
                journey = self._journeys.get(tid)
                if journey is None:
                    continue
                journey.events.append(StageEvent(cycle=t, stage=stage, port=port, wait=wait))
                if self._n_stages is not None and journey.stages_served == self._n_stages:
                    self._completed += 1
        if self._completed >= self.limit:
            self._done = True

    # -- queries ----------------------------------------------------------
    @property
    def traced(self) -> int:
        """Number of messages with at least an injection record."""
        return len(self._journeys)

    @property
    def finished(self) -> bool:
        """True once all ``limit`` journeys completed and tracing stopped."""
        return self._done

    def journey(self, track_id: int) -> MessageJourney:
        """The journey of one message (raises if it was not traced)."""
        if track_id not in self._journeys:
            raise SimulationError(f"message {track_id} was not traced")
        return self._journeys[track_id]

    def completed_journeys(self, n_stages: int) -> List[MessageJourney]:
        """All journeys that were served at every stage."""
        return [
            j for j in self._journeys.values() if j.stages_served == n_stages
        ]

    def slowest(self, n: int = 5) -> List[MessageJourney]:
        """The ``n`` traced messages with the largest total wait."""
        return sorted(
            self._journeys.values(), key=lambda j: j.total_wait, reverse=True
        )[:n]
