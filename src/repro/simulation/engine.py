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

One engine evaluates ``R >= 1`` disjoint copies of the network -- the
replicas of its traffic generator (``traffic.n_replicas``) -- in one
set of arrays: a serial run is ``R = 1``, and the stacked runs of
:mod:`repro.simulation.batched` are ``R`` scenarios at once.
:func:`run_windows` is the one loop that feeds the pass, for this engine
and for the streamed engine's pre-drawn replicas alike.
"""

from __future__ import annotations

# repro: lint-ok RPR001 -- phase profiling only; timings never enter simulation state
from time import perf_counter
from typing import Callable, Literal, Optional

import numpy as np

from repro.errors import SimulationError
from repro.obs.profiling import PhaseTimers
from repro.simulation import stagewise
from repro.simulation.sanitize import sanitizer_enabled
from repro.simulation.stagewise import Hops, StagewisePass
from repro.simulation.stats import (
    BatchedTrackedMessages,
    StageAccumulator,
    TrackedMessages,
)
from repro.simulation.topology import MultistageTopology
from repro.simulation.traffic import NetworkTrafficGenerator

__all__ = ["ClockedEngine", "build_routing_tables", "run_windows"]

#: ``draw(t0, end)`` -> the end cycle of the window of cycles opening at
#: ``t0`` (at most ``end``), its arrivals in injection order and -- for
#: an observed run only, else ``None`` -- each arrival's network input
WindowDraw = Callable[[int, int], tuple]


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


def run_windows(
    evaluator: StagewisePass,
    end: int,
    measure_from: int,
    draw: WindowDraw,
    timers: Optional[PhaseTimers] = None,
) -> None:
    """Advance ``evaluator`` to cycle ``end``, one drawn window at a time.

    Service starts from ``measure_from`` on are recorded.  With
    ``REPRO_SANITIZE=1`` (read once per call) every window end is
    checked by the invariant hooks of :mod:`repro.simulation.sanitize`
    (finite statistics, non-negative queue depths, message
    conservation).  ``timers`` accumulate each window's ``predraw`` and
    ``pass`` wall time.
    """
    evaluator.sanitize = sanitizer_enabled()
    while evaluator.now < end:
        t0 = perf_counter()
        window_end, arrivals, sources = draw(evaluator.now, end)
        t1 = perf_counter()
        evaluator.advance(window_end, arrivals, measure_from, sources)
        if timers is not None:
            timers.add("predraw", t1 - t0, backend="numpy")
            timers.add("pass", perf_counter() - t1, backend="numpy")


class ClockedEngine:
    """Cycle-accurate simulator of ``traffic.n_replicas`` disjoint copies
    of one multistage network.

    Ports are numbered ``replica * n_stages * width + stage * width +
    line`` and statistic bins ``replica * n_stages + stage``; with one
    replica (a serial run) they are the stage and the port.

    Parameters
    ----------
    topology:
        The wiring/routing model (digit-routed; see
        :func:`build_routing_tables`).
    traffic:
        First-stage message source; one ``generate_batch()`` per cycle
        draws every replica's arrivals.
    transfer:
        ``"cut_through"`` (paper model: total service ``n + m - 1``) or
        ``"store_forward"`` (total service ``n * m``).
    buffer_capacity:
        ``None`` for the paper's infinite buffers; an integer makes
        every output queue a finite FIFO that *drops* overflow.
    routing_rng:
        Handed to the topology's ``entry_queue`` (the built-in
        topologies are deterministic in the destination and ignore it).
    track_limit:
        Maximum number of per-message rows kept per replica for
        correlation/total statistics (streaming stage statistics are
        unaffected).
    """

    def __init__(
        self,
        topology: MultistageTopology,
        traffic: NetworkTrafficGenerator,
        transfer: Literal["cut_through", "store_forward"] = "cut_through",
        buffer_capacity: Optional[int] = None,
        routing_rng: Optional[np.random.Generator] = None,
        track_limit: int = 200_000,
    ) -> None:
        if traffic.width != topology.width:
            raise SimulationError(
                f"traffic width {traffic.width} != topology width {topology.width}"
            )
        if transfer not in ("cut_through", "store_forward"):
            raise SimulationError(f"unknown transfer mode {transfer!r}")
        if buffer_capacity is not None and buffer_capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {buffer_capacity}")
        perm_stack, shifts = build_routing_tables(topology)
        self.topology = topology
        self.traffic = traffic
        self.transfer = transfer
        self.routing_rng = routing_rng
        #: attached observers, in attachment order (see :mod:`repro.obs.base`)
        self.observers: list = []
        #: phase timers (``predraw``/``pass``); ``None`` = off
        self.timers: Optional[PhaseTimers] = None
        self.n_replicas = traffic.n_replicas
        self.width = topology.width
        self.n_stages = topology.n_stages
        self.stats = StageAccumulator(self.n_replicas * self.n_stages)
        # one replica's tracker grows with its run; a stack's is full-size
        self.tracker = (
            TrackedMessages(track_limit, self.n_stages)
            if self.n_replicas == 1
            else BatchedTrackedMessages(self.n_replicas, track_limit, self.n_stages)
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
        """Advance ``n_cycles`` from where the engine stands; discard
        statistics before ``warmup`` cycles into them (see
        :func:`run_windows`)."""
        self._start(n_cycles, warmup)
        self.measure_from = self.now + warmup
        run_windows(
            self.evaluator,
            self.now + n_cycles,
            self.measure_from,
            self._predraw_window,
            self.timers,
        )

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
        """Draw the arrivals of the window of cycles opening at ``t0``.

        One ``generate_batch`` / ``entry_queue`` call per cycle, in cycle
        order; the window closes after the cycle that brings it to
        :data:`~repro.simulation.stagewise.WINDOW_MESSAGES` messages, or
        at ``end``.  Returns the window's end cycle, its messages in
        injection order with their tracker slots, and -- only with
        observers attached -- their network inputs.
        """
        # one buffer row per Hops field (plus the sources when observed),
        # filled cycle by cycle: holding on to every cycle's small arrays
        # until the window closes scatters them through the heap, which
        # raised the peak memory of `repro serve` by about 15 % over 20
        # cold requests.  The spare columns take the cycle that closes
        # the window; a larger one grows the buffer.
        observed = bool(self.observers)
        n_fields = len(Hops._fields)
        buf = np.empty(
            (n_fields + observed, stagewise.WINDOW_MESSAGES + 64), dtype=np.int64
        )
        n = 0
        t = t0
        while t < end:
            arrivals = self.traffic.generate_batch()
            m = arrivals.sources.size
            if m:
                if n + m > buf.shape[1]:
                    grow = np.empty((buf.shape[0], max(m, buf.shape[1])), np.int64)
                    buf = np.concatenate([buf, grow], axis=1)
                row = buf[:, n : n + m]
                row[0] = self.topology.entry_queue(
                    arrivals.sources, arrivals.destinations, self.routing_rng
                )
                row[1] = t
                row[2] = arrivals.destinations
                row[3] = arrivals.services
                row[4] = arrivals.replicas
                if observed:
                    row[5] = arrivals.sources
                n += m
            t += 1
            if n >= stagewise.WINDOW_MESSAGES:
                break
        window = Hops(*buf[:n_fields, :n])
        # the track row holds each message's replica until its slot
        # replaces it; messages before measure_from are not tracked
        port, replicas = window.port, window.track
        if self.n_replicas > 1:
            port += replicas * self.evaluator.ports_per_replica
        measured = int(np.searchsorted(window.arrival, self.measure_from))
        replicas[measured:] = self.tracker.assign(
            replicas[measured:], window.arrival[measured:]
        )
        replicas[:measured] = -1
        return t, window, buf[n_fields, :n] if observed else None

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
