"""The clocked engine: the network, evaluated window by window.

The paper's clocked network: every cycle, fresh messages enter the
first-stage output queues, and every idle port whose queue head has
arrived starts transmitting it -- the wait is the service start less
the queue arrival -- and hands it to the next stage with arrival ``t +
1`` (cut-through) or ``t + service`` (store-and-forward).  Every port is
a FIFO queue obeying Lindley's recursion, so :class:`ClockedEngine`
never steps a clock: it draws the arrivals of a window of cycles and
hands them to one :class:`~repro.simulation.stagewise.StagewisePass`,
which carries queued messages, next-free cycles and high-water marks
into the next window and the next :meth:`~ClockedEngine.run`.

One engine evaluates ``R >= 1`` disjoint copies of the network -- one
replica per traffic generator -- in one set of arrays: a serial run is
``R = 1``, and the stacked runs of :mod:`repro.simulation.batched` are
``R`` seeds of one scenario at once.  Each replica draws its arrivals from its own
traffic stream in blocks of
:data:`~repro.simulation.traffic.BLOCK_CYCLES` cycles on a grid that
starts at cycle 0 (:mod:`repro.simulation.traffic`).  The engine draws a
block the first time a window needs one of its cycles and keeps the rest
for later windows and the next :meth:`~ClockedEngine.run`, so a
replica's sample path depends only on its own streams -- not on the
run, window or batch it is evaluated in.
"""

from __future__ import annotations

# repro: lint-ok RPR001 -- phase profiling only; timings never enter simulation state
from time import perf_counter
from typing import Literal, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.obs.profiling import PhaseTimers
from repro.simulation import stagewise
from repro.simulation.sanitize import sanitizer_enabled
from repro.simulation.stagewise import Hops, StagewisePass
from repro.simulation.stats import (
    BatchedTrackedMessages,
    MessageTotals,
    StageAccumulator,
    TrackedMessages,
)
from repro.simulation.topology import MultistageTopology
from repro.simulation.traffic import BLOCK_CYCLES, NetworkTrafficGenerator

__all__ = ["ClockedEngine", "build_routing_tables"]


def build_routing_tables(topology: MultistageTopology):
    """Stacked per-stage wiring permutations and digit divisors.

    Returns ``(perm_stack, shifts)``: ``perm_stack[s]`` is stage ``s``'s
    input wiring permutation and ``shifts`` the destination-digit
    divisors.  Forwarding a mixed-stage batch then needs one gather, no
    per-stage Python loop; shared by every replica (each runs the
    *same* network, so one table serves all).  The engines route by
    destination digits, so a topology without a digit table
    (``routing_shifts()`` is ``None``; no built-in one) is refused.
    """
    shifts = topology.routing_shifts()
    if shifts is None:
        raise SimulationError(
            f"{type(topology).__name__} has no digit routing table "
            "(routing_shifts() is None); the engines route by destination digits"
        )
    perm_stack = np.stack(
        [topology.input_wiring(s) for s in range(topology.n_stages)]
    )
    return perm_stack, shifts


class ClockedEngine:
    """Cycle-accurate simulator of ``len(traffic)`` disjoint copies of
    one multistage network.

    Ports are numbered ``replica * n_stages * width + stage * width +
    line`` and statistic bins ``replica * n_stages + stage``; with one
    replica (a serial run) they are the stage and the port.

    Parameters
    ----------
    topology:
        The wiring/routing model (digit-routed; see
        :func:`build_routing_tables`).
    traffic:
        One first-stage message source per replica; each
        ``generate_batch()`` draws that replica's next block of cycles.
    transfer:
        ``"cut_through"`` (paper model: total service ``n + m - 1``) or
        ``"store_forward"`` (total service ``n * m``).
    buffer_capacity:
        ``None`` for the paper's infinite buffers; an integer makes
        every output queue a finite FIFO that *drops* overflow.
    track_limit:
        Maximum number of per-message rows kept per replica for
        correlation/total statistics (streaming stage statistics are
        unaffected); ``0`` keeps each measured message's total wait
        instead (:class:`~repro.simulation.stats.MessageTotals`).
    measured_cycles:
        The measured cycles (``n_cycles - warmup``) of the one run a
        stacked engine is built for, or ``None``.  Given them, each
        replica's tracker rows are capped at the most messages it can
        inject in them (a bulk at every input every cycle), so a short
        run does not hold ``track_limit`` rows per replica.
    """

    def __init__(
        self,
        topology: MultistageTopology,
        traffic: Sequence[NetworkTrafficGenerator],
        transfer: Literal["cut_through", "store_forward"] = "cut_through",
        buffer_capacity: Optional[int] = None,
        track_limit: int = 200_000,
        measured_cycles: Optional[int] = None,
    ) -> None:
        traffic = list(traffic)
        if not traffic:
            raise SimulationError("need one traffic source per replica, got none")
        for source in traffic:
            if source.width != topology.width:
                raise SimulationError(
                    f"traffic width {source.width} != topology width {topology.width}"
                )
        if transfer not in ("cut_through", "store_forward"):
            raise SimulationError(f"unknown transfer mode {transfer!r}")
        if buffer_capacity is not None and buffer_capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {buffer_capacity}")
        perm_stack, shifts = build_routing_tables(topology)
        self.topology = topology
        self.traffic = traffic
        self.transfer = transfer
        #: attached observers, in attachment order (see :mod:`repro.obs.base`)
        self.observers: list = []
        #: phase timers (``predraw``/``pass``); ``None`` = off
        self.timers: Optional[PhaseTimers] = None
        self.n_replicas = len(traffic)
        self.width = topology.width
        self.n_stages = topology.n_stages
        self.stats = StageAccumulator(self.n_replicas * self.n_stages)
        # one replica's tracker grows with its run; a stack's is sized up front
        self.tracker: "TrackedMessages | BatchedTrackedMessages | MessageTotals"
        if track_limit == 0:
            self.tracker = MessageTotals(self.n_replicas, self.n_stages)
        elif self.n_replicas == 1:
            self.tracker = TrackedMessages(track_limit, self.n_stages)
        else:
            rows = None
            if measured_cycles is not None:
                bulk = max(source.bulk_size for source in traffic)
                rows = self.width * bulk * measured_cycles
            self.tracker = BatchedTrackedMessages(
                self.n_replicas, track_limit, self.n_stages, rows=rows
            )
        #: cycle from which statistics are recorded and messages tracked
        self.measure_from = 0
        # set once a kernel was handed the run (predraw): the queues are then
        # the kernel's, and the engine cannot run on
        self._predrawn = False
        #: the stage-wise pass that evaluates every window of every run
        self.evaluator = StagewisePass(
            perm_stack,
            shifts,
            topology.k,
            self.n_replicas,
            transfer == "cut_through",
            self.stats,
            self.tracker.record,
            capacity=buffer_capacity,
        )
        self.evaluator.observers = self.observers
        # drawn arrivals not yet evaluated, cycle-major, one row per Hops
        # field (the track row holds the replica) plus, for one replica,
        # the network inputs observers read; they reach _drawn_until, a
        # multiple of BLOCK_CYCLES
        self._drawn = np.empty((len(Hops._fields) + (self.n_replicas == 1), 0), np.int64)
        self._drawn_until = 0

    # ------------------------------------------------------------------
    # observers / instrumentation
    # ------------------------------------------------------------------
    def add_observer(self, observer) -> None:
        """Attach an observer (idempotent); see :mod:`repro.obs.base`.

        Observers read one network's ports and stages, so an engine of
        several replicas refuses them.
        """
        if self.n_replicas > 1:
            raise SimulationError(
                f"observers watch one network; this engine stacks "
                f"{self.n_replicas} replicas -- run serially to observe"
            )
        if observer not in self.observers:
            self.observers.append(observer)
            self.evaluator.reserve_events()
            observer.on_attach(self)

    def remove_observer(self, observer) -> None:
        """Detach an observer (no-op if absent)."""
        if observer in self.observers:
            self.observers.remove(observer)
            observer.on_detach(self)

    def enable_profiling(self) -> PhaseTimers:
        """Start accumulating predraw/pass wall-clock phase timers."""
        if self.timers is None:
            self.timers = PhaseTimers()
        return self.timers

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def run(self, n_cycles: int, warmup: int = 0) -> None:
        """Advance ``n_cycles`` from where the engine stands, one drawn
        window at a time; discard statistics before ``warmup`` cycles
        into them.

        With ``REPRO_SANITIZE=1`` (read once per call) every window end
        is checked by the invariant hooks of
        :mod:`repro.simulation.sanitize` (finite statistics, non-negative
        queue depths, message conservation).  Phase timers accumulate
        each window's ``predraw`` and ``pass`` wall time.
        """
        self._start(n_cycles, warmup)
        self.measure_from = self.now + warmup
        end = self.now + n_cycles
        evaluator, timers = self.evaluator, self.timers
        evaluator.sanitize = sanitizer_enabled()
        while evaluator.now < end:
            t0 = perf_counter()
            window_end, arrivals, sources = self._predraw_window(evaluator.now, end)
            t1 = perf_counter()
            evaluator.advance(window_end, arrivals, self.measure_from, sources)
            if timers is not None:
                timers.add("predraw", t1 - t0, backend="numpy")
                timers.add("pass", perf_counter() - t1, backend="numpy")

    def predraw(self, n_cycles: int, warmup: int) -> Hops:
        """The arrivals of a fresh engine's first ``n_cycles``, for a
        kernel that evaluates the whole run in one call
        (:func:`~repro.simulation.backends.jit.run_kernel`).

        They are drawn window by window exactly as :meth:`run` draws
        them, tracker slots included, so either evaluator replays the
        same sample path.  The pass does not advance: the kernel takes
        its place and keeps the queues, so the engine cannot run on.
        """
        self._start(n_cycles, warmup)
        if self.now:
            raise SimulationError(
                "a kernel evaluates a run from cycle 0; build a fresh engine"
            )
        self._predrawn = True
        self.measure_from = warmup
        windows = []
        t = 0
        while t < n_cycles:
            t, window, _ = self._predraw_window(t, n_cycles)
            windows.append(window)
        return Hops.concat(windows)

    def _start(self, n_cycles: int, warmup: int) -> None:
        if n_cycles < 1:
            raise SimulationError(f"n_cycles must be >= 1, got {n_cycles}")
        if not 0 <= warmup < n_cycles:
            raise SimulationError(f"warmup {warmup} outside [0, {n_cycles})")
        if self._predrawn:
            raise SimulationError(
                "a kernel evaluated this engine's run and kept its queues; "
                "build a fresh engine to simulate further"
            )

    def _predraw_window(self, t0: int, end: int) -> tuple:
        """The arrivals of the window of cycles opening at ``t0``.

        Draws block rows (:meth:`_draw_blocks`) until the undrawn cycles
        before ``end`` are gone or the drawn ones hold
        :data:`~repro.simulation.stagewise.WINDOW_MESSAGES` messages; the
        window closes after the cycle that brings it to that many, or at
        ``end``.  Returns the window's end cycle, its messages in
        injection order with their tracker slots, and -- only with
        observers attached -- their network inputs.
        """
        limit = stagewise.WINDOW_MESSAGES
        while self._drawn_until <= t0 or (
            self._drawn.shape[1] < limit and self._drawn_until < end
        ):
            self._draw_blocks()
        arrival = self._drawn[1]
        if limit == 0:
            t1 = t0 + 1
        elif limit <= arrival.size:
            t1 = int(arrival[limit - 1]) + 1
        else:
            t1 = end
        t1 = min(max(t1, t0 + 1), end)
        n = int(np.searchsorted(arrival, t1))
        rows, self._drawn = self._drawn[:, :n], self._drawn[:, n:]
        n_fields = len(Hops._fields)
        window = Hops(*rows[:n_fields])
        # the track row holds each message's replica until its slot
        # replaces it; messages before measure_from are not tracked
        replicas = window.track
        measured = int(np.searchsorted(window.arrival, self.measure_from))
        replicas[measured:] = self.tracker.assign(
            replicas[measured:], window.arrival[measured:]
        )
        replicas[:measured] = -1
        return t1, window, rows[n_fields] if self.observers else None

    def _draw_blocks(self) -> None:
        """Draw every replica's next block of cycles and queue it behind
        the arrivals still undrawn, cycle-major (replica-major within a
        cycle, each replica's own order kept)."""
        t0 = self._drawn_until
        ppr = self.evaluator.ports_per_replica
        single = self.n_replicas == 1
        parts = []
        for replica, traffic in enumerate(self.traffic):
            block = traffic.generate_batch()
            port = self.topology.entry_queue(block.sources, block.destinations)
            # in the order of the rows they fill: port, cycle, dest, service
            # and, for the observers of one replica, the network inputs
            parts.append((
                port + replica * ppr, block.cycles, block.destinations, block.services,
                block.sources if single else None,
            ))
        # one buffer for the arrivals still undrawn and the new block row
        held = self._drawn.shape[1]
        sizes = [part[1].size for part in parts]
        rows = np.empty((self._drawn.shape[0], held + sum(sizes)), dtype=np.int64)
        rows[:, :held] = self._drawn
        new = rows[:, held:]
        if single:
            port, cycles, dest, service, sources = parts[0]
            new[0], new[2], new[3], new[4], new[5] = port, dest, service, 0, sources
        else:
            cycles = np.concatenate([part[1] for part in parts])
            order = np.argsort(cycles.astype(np.uint16), kind="stable")
            cycles = cycles[order]
            for row in (0, 2, 3):
                new[row] = np.concatenate([part[row] for part in parts])[order]
            new[4] = np.repeat(np.arange(self.n_replicas), sizes)[order]
        np.add(cycles, t0, out=new[1])
        self._drawn = rows
        self._drawn_until = t0 + BLOCK_CYCLES

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Cycles simulated so far (the next cycle to run)."""
        return self.evaluator.now

    @property
    def injected(self) -> int:
        """Messages injected so far, over all replicas."""
        return int(self.evaluator.injected.sum())

    @property
    def completed(self) -> int:
        """Messages that started service at the last stage."""
        return int(self.evaluator.completed.sum())

    @property
    def dropped(self) -> int:
        """Messages refused by full buffers (finite buffers only)."""
        return int(self.evaluator.dropped.sum())

    @property
    def in_flight(self) -> int:
        """Messages currently buffered anywhere in the network."""
        return self.evaluator.in_flight

    @property
    def max_occupancy(self) -> int:
        """High-water mark of any queue length, for buffer sizing studies."""
        return int(self.evaluator.high_water.max())

    def __repr__(self) -> str:
        return (
            f"ClockedEngine(t={self.now}, replicas={self.n_replicas}, "
            f"stages={self.n_stages}, width={self.width}, in_flight={self.in_flight})"
        )
