"""The clocked simulation core.

One :meth:`ClockedEngine.step` is one network clock cycle:

1. **inject** -- fresh messages enter the first-stage output queues
   chosen by the topology's routing (arrivals and departures do not
   interfere, per the paper's switch model);
2. **serve** -- every idle output port whose queue head has arrived
   starts transmitting it; the waiting time (service start minus queue
   arrival) is recorded, the port becomes busy for the message's
   service time, and the message is handed to the next stage --
   immediately with arrival stamp ``t + 1`` under cut-through (the
   head packet crosses one switch per cycle while the tail still
   streams), or at ``t + service`` under store-and-forward;
3. **tick** -- busy counters decrement.

The engine is fully vectorised across all ``n_stages * width`` ports:
a cycle costs a fixed number of NumPy kernel calls independent of the
network population, which is what makes the paper's 12-stage sweeps
tractable in pure Python.
"""

from __future__ import annotations

# repro: lint-ok RPR001 -- phase profiling only; timings never enter simulation state
from time import perf_counter
from typing import Literal, Optional

import numpy as np

from repro.errors import SimulationError
from repro.obs.base import ObserverSet
from repro.obs.profiling import PhaseTimers
from repro.simulation import stagewise
from repro.simulation.sanitize import (
    check_conservation,
    check_queue_depths,
    check_stage_stats,
    sanitizer_enabled,
)
from repro.simulation.stagewise import Hops, StagewisePass
from repro.simulation.stats import StageAccumulator, TrackedMessages
from repro.simulation.switch import RingBufferQueues
from repro.simulation.topology import MultistageTopology
from repro.simulation.traffic import NetworkTrafficGenerator

__all__ = ["ClockedEngine", "build_routing_tables"]


def build_routing_tables(topology: MultistageTopology):
    """Stacked per-stage wiring permutations and digit divisors.

    Returns ``(perm_stack, shifts)``: ``perm_stack[s]`` is stage ``s``'s
    input wiring permutation and ``shifts`` the destination-digit
    divisors (``None`` for topologies routed by coin flips).  Forwarding
    a mixed-stage batch then needs one gather, no per-stage Python loop;
    shared by :class:`ClockedEngine` and the replica-batched engine
    (every replica runs the *same* network, so one table serves all).
    """
    perm_stack = np.stack(
        [topology.input_wiring(s) for s in range(topology.n_stages)]
    )
    return perm_stack, topology.routing_shifts()


class ClockedEngine:
    """Cycle-accurate simulator of one multistage network.

    Parameters
    ----------
    topology:
        The wiring/routing model.
    traffic:
        First-stage message source.
    transfer:
        ``"cut_through"`` (paper model: total service ``n + m - 1``) or
        ``"store_forward"`` (total service ``n * m``).
    buffer_capacity:
        ``None`` for the paper's infinite buffers; an integer makes
        every output queue a finite FIFO that *drops* overflow.
    routing_rng:
        Kept for custom topologies whose :meth:`routing_digits` needs
        randomness (the built-in ones are deterministic in the
        destination).
    track_limit:
        Maximum number of per-message rows kept for correlation/total
        statistics (streaming stage statistics are unaffected).
    observer:
        Optional event sink (e.g.
        :class:`~repro.simulation.trace.MessageTracer`) attached at
        construction; any number more can be added with
        :meth:`add_observer` (see :mod:`repro.obs.base`).  With no
        observers the dispatch costs nothing.
    """

    def __init__(
        self,
        topology: MultistageTopology,
        traffic: NetworkTrafficGenerator,
        transfer: Literal["cut_through", "store_forward"] = "cut_through",
        buffer_capacity: Optional[int] = None,
        routing_rng: Optional[np.random.Generator] = None,
        track_limit: int = 200_000,
        observer=None,
    ) -> None:
        if traffic.width != topology.width:
            raise SimulationError(
                f"traffic width {traffic.width} != topology width {topology.width}"
            )
        if transfer not in ("cut_through", "store_forward"):
            raise SimulationError(f"unknown transfer mode {transfer!r}")
        self.topology = topology
        self.traffic = traffic
        self.transfer = transfer
        self.routing_rng = routing_rng
        #: composable observer registry (see :mod:`repro.obs.base`)
        self.observers = ObserverSet(self)
        #: phase timers (``inject``/``serve``/``tick``); ``None`` = off
        self.timers: Optional[PhaseTimers] = None
        self.width = topology.width
        self.n_stages = topology.n_stages
        n_ports = self.n_stages * self.width
        fields = {
            "dest": np.int64,
            "service": np.int64,
            "arrival": np.int64,
            "track": np.int64,
        }
        self.queues = RingBufferQueues(
            n_ports,
            fields,
            capacity=buffer_capacity or 64,
            finite=buffer_capacity is not None,
        )
        self.busy = np.zeros(n_ports, dtype=np.int64)
        self.stats = StageAccumulator(self.n_stages)
        self.tracker = TrackedMessages(track_limit, self.n_stages)
        self.now = 0
        #: cycle from which statistics are recorded and messages tracked
        self.measure_from = 0
        self.completed = 0
        self.injected = 0
        self._perm_stack, self._shifts = build_routing_tables(topology)
        #: when True, per-cycle (sum, count) of last-stage waits are
        #: appended to :attr:`cycle_wait_sums` / :attr:`cycle_wait_counts`
        #: (used by the automated warm-up detector)
        self.record_cycle_series = False
        self.cycle_wait_sums: list = []
        self.cycle_wait_counts: list = []
        if observer is not None:
            self.add_observer(observer)

    # ------------------------------------------------------------------
    # observers / instrumentation
    # ------------------------------------------------------------------
    def add_observer(self, observer) -> None:
        """Attach an observer (idempotent); see :mod:`repro.obs.base`."""
        self.observers.add(observer)

    def remove_observer(self, observer) -> None:
        """Detach an observer (no-op if absent)."""
        self.observers.remove(observer)

    @property
    def observer(self):
        """Legacy single-observer view: the first attached, or ``None``.

        Assigning replaces *all* attached observers (the historical
        single-slot semantics); prefer :meth:`add_observer`.
        """
        attached = self.observers.observers
        return attached[0] if attached else None

    @observer.setter
    def observer(self, value) -> None:
        self.observers.replace([] if value is None else [value])

    def enable_profiling(self) -> PhaseTimers:
        """Start accumulating inject/serve/tick wall-clock phase timers."""
        if self.timers is None:
            self.timers = PhaseTimers()
        return self.timers

    # ------------------------------------------------------------------
    # simulation loop
    # ------------------------------------------------------------------
    def run(self, n_cycles: int, warmup: int = 0) -> None:
        """Advance ``n_cycles``; discard statistics before ``warmup``.

        A fresh engine that needs no per-cycle state (digit routing,
        infinite buffers, no observers or phase timers, no cycle series,
        sanitizer off) is evaluated stage by stage
        (:mod:`repro.simulation.stagewise`), with bit-identical results
        and end state; otherwise cycle by cycle.  With ``REPRO_SANITIZE=1``
        every cycle is followed by the invariant hooks of
        :mod:`repro.simulation.sanitize` (finite statistics, non-negative
        queue depths, message conservation).
        """
        if n_cycles < 1:
            raise SimulationError(f"n_cycles must be >= 1, got {n_cycles}")
        if not 0 <= warmup < n_cycles:
            raise SimulationError(f"warmup {warmup} outside [0, {n_cycles})")
        self.measure_from = self.now + warmup
        end = self.now + n_cycles
        sanitize = sanitizer_enabled()
        if not sanitize and self._stagewise_eligible():
            self._run_stagewise(end)
            return
        while self.now < end:
            self.step()
            if sanitize:
                self._sanitize_cycle()

    def _stagewise_eligible(self) -> bool:
        """Whether nothing in this run needs the per-cycle loop."""
        return (
            self._shifts is not None
            and not self.queues.finite
            and len(self.observers) == 0
            and self.timers is None
            and not self.record_cycle_series
            and self.now == 0  # fresh: empty queues, idle ports
        )

    def _run_stagewise(self, end: int) -> None:
        """Evaluate cycles ``[now, end)`` stage by stage, then restore the state."""
        evaluator = StagewisePass(
            self._perm_stack,
            self._shifts,
            self.topology.k,
            1,
            self.transfer == "cut_through",
            self.stats,
            self.tracker.record,
        )
        while self.now < end:
            window_end, arrivals = self._predraw_window(end)
            evaluator.advance(window_end, arrivals, self.measure_from)
            self.now = window_end
        self.completed += int(evaluator.completed[0])
        np.maximum(evaluator.free - end, 0, out=self.busy)
        queued = evaluator.queued()
        self.queues.restore(
            queued.port,
            evaluator.high_water,
            dest=queued.dest,
            service=queued.service,
            arrival=queued.arrival,
            track=queued.track,
        )

    def _predraw_window(self, end: int) -> tuple:
        """Draw the arrivals of one window of cycles from ``now``.

        The same per-cycle ``generate`` / ``entry_queue`` /
        ``allocate`` calls as :meth:`_inject`, so the random streams and
        tracker slots advance exactly as in the cycle loop.  Returns the
        window's end cycle and its messages in injection order.
        """
        # one buffer row per Hops field, filled cycle by cycle: holding on
        # to every cycle's small arrays until the window closes scatters
        # them through the heap, which raised the peak memory of
        # `repro serve` by about 15 % over 20 cold requests.  The spare
        # columns take the cycle that closes the window; a larger one
        # doubles the buffer.
        buf = np.empty((len(Hops._fields), stagewise.WINDOW_MESSAGES + 64), dtype=np.int64)
        n = 0
        t = self.now
        while t < end:
            arrivals = self.traffic.generate()
            m = arrivals.sources.size
            if m:
                self.injected += m
                lines = self.topology.entry_queue(
                    arrivals.sources, arrivals.destinations, self.routing_rng
                )
                if n + m > buf.shape[1]:
                    buf = np.concatenate([buf, np.empty_like(buf)], axis=1)
                row = buf[:, n : n + m]
                row[0] = lines
                row[1] = t
                row[2] = arrivals.destinations
                row[3] = arrivals.services
                if t >= self.measure_from:
                    row[4] = self.tracker.allocate(m)
                else:
                    row[4] = -1
                n += m
            t += 1
            if n >= stagewise.WINDOW_MESSAGES:
                break
        return t, Hops(*buf[:, :n])

    def _sanitize_cycle(self) -> None:
        """One round of sanitizer checks (cycle just simulated)."""
        t = self.now - 1
        check_stage_stats(self.stats, cycle=t)
        check_queue_depths(self.queues.counts, cycle=t)
        check_conservation(
            self.injected,
            self.completed,
            self.in_flight,
            self.queues.dropped,
            cycle=t,
        )

    def step(self) -> None:
        """Simulate one clock cycle."""
        t = self.now
        measuring = t >= self.measure_from
        if self.record_cycle_series:
            self._cycle_probe = [0.0, 0]
        # on_cycle_end observers fire after inject+serve but before the
        # busy decrement, so a port transmitting during cycle t is still
        # visibly busy (utilization sampling would otherwise miss every
        # unit-service transmission).
        timers = self.timers
        if timers is None:
            self._inject(t, measuring)
            self._serve(t, measuring)
            for callback in self.observers.cycle_end:
                callback(t)
            np.subtract(self.busy, 1, out=self.busy, where=self.busy > 0)
        else:
            t0 = perf_counter()
            self._inject(t, measuring)
            t1 = perf_counter()
            self._serve(t, measuring)
            t2 = perf_counter()
            for callback in self.observers.cycle_end:
                callback(t)
            np.subtract(self.busy, 1, out=self.busy, where=self.busy > 0)
            t3 = perf_counter()
            timers.add("inject", t1 - t0, backend="numpy")
            timers.add("serve", t2 - t1, backend="numpy")
            timers.add("tick", t3 - t2, backend="numpy")
        if self.record_cycle_series:
            self.cycle_wait_sums.append(self._cycle_probe[0])
            self.cycle_wait_counts.append(self._cycle_probe[1])
        self.now = t + 1

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def _inject(self, t: int, measuring: bool) -> None:
        arrivals = self.traffic.generate()
        n = arrivals.sources.size
        if n == 0:
            return
        self.injected += n
        lines = self.topology.entry_queue(
            arrivals.sources, arrivals.destinations, self.routing_rng
        )
        track = (
            self.tracker.allocate(n) if measuring else np.full(n, -1, dtype=np.int64)
        )
        self.queues.push_batch(
            lines,  # stage 0 occupies global ports [0, width)
            dest=arrivals.destinations,
            service=arrivals.services,
            arrival=np.full(n, t, dtype=np.int64),
            track=track,
        )
        for callback in self.observers.inject:
            callback(t, arrivals.sources, lines, track)

    def _serve(self, t: int, measuring: bool) -> None:
        candidates = np.flatnonzero((self.busy == 0) & (self.queues.counts > 0))
        if candidates.size == 0:
            return
        head_arrival = self.queues.peek(candidates, "arrival")
        ready = candidates[head_arrival <= t]
        if ready.size == 0:
            return
        msg = self.queues.pop(ready)
        waits = (t - msg["arrival"]).astype(np.float64)
        stages = ready // self.width
        if measuring:
            self.stats.add(stages, waits)
            self.tracker.record(msg["track"], stages, waits)
        if self.record_cycle_series:
            last = stages == self.n_stages - 1
            self._cycle_probe[0] += float(waits[last].sum())
            self._cycle_probe[1] += int(last.sum())
        for callback in self.observers.service_start:
            callback(t, ready, stages, waits, msg["track"])
        self.busy[ready] = msg["service"]
        self._forward(t, ready, stages, msg)

    def _forward(self, t: int, ports: np.ndarray, stages: np.ndarray, msg: dict) -> None:
        moving = stages < self.n_stages - 1
        self.completed += int((~moving).sum())
        if not moving.any():
            return
        ports = ports[moving]
        stages = stages[moving]
        dest = msg["dest"][moving]
        lines = ports % self.width
        # stacked routing tables: one gather per batch, no per-stage loop
        in_lines = self._perm_stack[stages + 1, lines]
        if self._shifts is not None:
            digits = (dest // self._shifts[stages + 1]) % self.topology.k
        else:
            digits = self.routing_rng.integers(0, self.topology.k, size=lines.size)
        next_lines = (in_lines // self.topology.k) * self.topology.k + digits
        next_ports = (stages + 1) * self.width + next_lines
        if self.transfer == "cut_through":
            arrival = np.full(ports.size, t + 1, dtype=np.int64)
        else:
            arrival = t + msg["service"][moving]
        self.queues.push_batch(
            next_ports,
            dest=dest,
            service=msg["service"][moving],
            arrival=arrival,
            track=msg["track"][moving],
        )

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Messages currently buffered anywhere in the network."""
        return self.queues.total_occupancy()

    def __repr__(self) -> str:
        return (
            f"ClockedEngine(t={self.now}, stages={self.n_stages}, "
            f"width={self.width}, in_flight={self.in_flight})"
        )
