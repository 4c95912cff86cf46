"""The serial clocked engine: one network, evaluated window by window.

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
"""

from __future__ import annotations

# repro: lint-ok RPR001 -- phase profiling only; timings never enter simulation state
from time import perf_counter
from typing import Literal, Optional

import numpy as np

from repro.errors import SimulationError
from repro.obs.profiling import PhaseTimers
from repro.simulation import stagewise
from repro.simulation.sanitize import sanitizer_enabled
from repro.simulation.stagewise import Hops, StagewisePass
from repro.simulation.stats import StageAccumulator, TrackedMessages
from repro.simulation.topology import MultistageTopology
from repro.simulation.traffic import NetworkTrafficGenerator

__all__ = ["ClockedEngine", "build_routing_tables"]


def build_routing_tables(topology: MultistageTopology):
    """Stacked per-stage wiring permutations and digit divisors.

    Returns ``(perm_stack, shifts)``: ``perm_stack[s]`` is stage ``s``'s
    input wiring permutation and ``shifts`` the destination-digit
    divisors.  Forwarding a mixed-stage batch then needs one gather, no
    per-stage Python loop; shared by every engine (every replica runs
    the *same* network, so one table serves all).  Every engine routes
    by destination digits, so a topology without a digit table
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
    """Cycle-accurate simulator of one multistage network.

    Parameters
    ----------
    topology:
        The wiring/routing model (digit-routed; see
        :func:`build_routing_tables`).
    traffic:
        First-stage message source.
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
        Maximum number of per-message rows kept for correlation/total
        statistics (streaming stage statistics are unaffected).
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
        self.width = topology.width
        self.n_stages = topology.n_stages
        self.stats = StageAccumulator(self.n_stages)
        self.tracker = TrackedMessages(track_limit, self.n_stages)
        #: cycle from which statistics are recorded and messages tracked
        self.measure_from = 0
        #: the stage-wise pass that evaluates every window of every run
        self.evaluator = StagewisePass(
            perm_stack,
            shifts,
            topology.k,
            1,
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
        """Attach an observer (idempotent); see :mod:`repro.obs.base`."""
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
        statistics before ``warmup`` cycles into them.

        With ``REPRO_SANITIZE=1`` (read once per call) every window end
        is checked by the invariant hooks of
        :mod:`repro.simulation.sanitize` (finite statistics, non-negative
        queue depths, message conservation).
        """
        if n_cycles < 1:
            raise SimulationError(f"n_cycles must be >= 1, got {n_cycles}")
        if not 0 <= warmup < n_cycles:
            raise SimulationError(f"warmup {warmup} outside [0, {n_cycles})")
        self.measure_from = self.now + warmup
        end = self.now + n_cycles
        evaluator = self.evaluator
        evaluator.sanitize = sanitizer_enabled()
        timers = self.timers
        while self.now < end:
            t0 = perf_counter()
            window_end, arrivals, sources = self._predraw_window(end)
            t1 = perf_counter()
            evaluator.advance(window_end, arrivals, self.measure_from, sources)
            if timers is not None:
                timers.add("predraw", t1 - t0, backend="numpy")
                timers.add("pass", perf_counter() - t1, backend="numpy")

    def _predraw_window(self, end: int) -> tuple:
        """Draw the arrivals of one window of cycles from ``now``.

        One ``generate`` / ``entry_queue`` / ``allocate`` call per cycle,
        in cycle order.  Returns the window's end cycle, its messages in
        injection order and -- only with observers attached -- their
        network inputs.
        """
        # one buffer row per Hops field (plus the sources when observed),
        # filled cycle by cycle: holding on to every cycle's small arrays
        # until the window closes scatters them through the heap, which
        # raised the peak memory of `repro serve` by about 15 % over 20
        # cold requests.  The spare columns take the cycle that closes
        # the window; a larger one doubles the buffer.
        observed = bool(self.observers)
        n_fields = len(Hops._fields)
        buf = np.empty(
            (n_fields + observed, stagewise.WINDOW_MESSAGES + 64), dtype=np.int64
        )
        n = 0
        t = self.now
        while t < end:
            arrivals = self.traffic.generate()
            m = arrivals.sources.size
            if m:
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
                if observed:
                    row[5] = arrivals.sources
                n += m
            t += 1
            if n >= stagewise.WINDOW_MESSAGES:
                break
        return t, Hops(*buf[:n_fields, :n]), buf[n_fields, :n] if observed else None

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Cycles simulated so far (the next cycle to run)."""
        return self.evaluator.now

    @property
    def injected(self) -> int:
        """Messages injected so far."""
        return int(self.evaluator.injected[0])

    @property
    def completed(self) -> int:
        """Messages that started service at the last stage."""
        return int(self.evaluator.completed[0])

    @property
    def dropped(self) -> int:
        """Messages refused by full buffers (finite buffers only)."""
        return int(self.evaluator.dropped[0])

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
            f"ClockedEngine(t={self.now}, stages={self.n_stages}, "
            f"width={self.width}, in_flight={self.in_flight})"
        )
