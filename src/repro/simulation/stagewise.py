"""Stage-wise evaluation of the clocked network: a windowed Lindley pass.

Every output port of the paper's network is a discrete-time FIFO queue
fed only by the stage before it, so the service starts at one port obey
Lindley's recursion (the max-plus view of FIFO departures)::

    start_i = max(arrival_i, start_{i-1} + service_{i-1})

over the port's messages in queue order, seeded with the cycle the port
is next free.  Unrolled, ``start_i = D_i + max(free, max_{j<=i}(arrival_j
- D_j))`` with ``D`` the exclusive running sum of service times, so a
whole stage of ports is one *segmented* exclusive cumsum plus one
segmented running maximum -- no clock cycle is simulated at all.

:class:`StagewisePass` evaluates pre-drawn arrivals that way, in windows
of cycles closed at about :data:`WINDOW_MESSAGES` injected messages.
Within a window it takes the stages in order: stage ``s``'s queue holds
the messages still queued from earlier windows followed by the ones
pushed this window (injections at stage 0, messages whose stage ``s-1``
service starts this window otherwise), which fixes every start in it.
Starts inside the window are *committed*: their statistics are recorded
and the message moves on, pushed at its start cycle.  Later starts stay
queued, because the order they join the next queue in depends on pushes
of later windows.  Between windows the pass keeps, per port, the cycle
it is next free, its queued messages in FIFO order and its occupancy
high-water mark.

The results are those of a cycle-by-cycle simulation, bit for bit:

* queue order is push order -- injection order at stage 0,
  ``(previous start, previous port)`` after it;
* statistics are handed to :meth:`StageAccumulator.add` sorted by
  ``(start cycle, port)``, the order a cycle-by-cycle simulation records
  them in, so each bin's first value -- its shift -- is the same; waits
  are integers, so every sum is exact in any order;
* a port's occupancy when a message is pushed is the number of
  messages ahead of it in FIFO order that have not started yet, found
  with one ``searchsorted`` per stage, so the high-water marks match;
* a run that ends mid-window leaves the exact queue contents and
  next-free cycles, so the next :meth:`StagewisePass.advance` resumes
  from them.

Within a cycle, injections join the first-stage queues *before* the
cycle's service starts, and a message started at cycle ``t`` joins its
next queue *after* them (stamped ``t + 1`` under cut-through, ``t +
service`` under store-and-forward).  With a finite ``capacity`` a
message is dropped when its queue is full as it is pushed
(:func:`_admitted`), and the Lindley step reruns on the admitted ones.

Service times are ``>= 1`` (the :class:`~repro.service.base.ServiceProcess`
contract), so a port starts at most one service per cycle.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional

import numpy as np

from repro.obs.base import Injections, StageEvents, WindowEvents
from repro.simulation.sanitize import (
    check_conservation,
    check_queue_depths,
    check_stage_stats,
)
from repro.simulation.stats import StageAccumulator

__all__ = ["Hops", "Recorder", "StagewisePass", "WINDOW_MESSAGES", "window_end"]

#: Injected messages after which a window of cycles closes.  It bounds
#: the pass's working set (a few arrays of this length per stage) and is
#: large enough that the per-window NumPy dispatch is amortised.
WINDOW_MESSAGES = 12_000

#: ``record(tracks, stages, waits)`` -- the per-message sink, e.g.
#: :meth:`TrackedMessages.record`; called once per stage and window
Recorder = Callable[[np.ndarray, np.ndarray, np.ndarray], None]

_EMPTY = np.empty(0, dtype=np.int64)
_NO_EVENTS = StageEvents(*(_EMPTY,) * 6)


class Hops(NamedTuple):
    """Messages at one stage, one entry per message (all ``int64``)."""

    port: np.ndarray     # global port of the queue the message is in
    arrival: np.ndarray  # cycle it may start service (the loop's stamp)
    dest: np.ndarray
    service: np.ndarray
    track: np.ndarray    # tracker slot / message id, -1 = untracked

    def take(self, index: np.ndarray) -> "Hops":
        return Hops(*(field[index] for field in self))

    @classmethod
    def empty(cls) -> "Hops":
        return cls(_EMPTY, _EMPTY, _EMPTY, _EMPTY, _EMPTY)

    @classmethod
    def concat(cls, parts: List["Hops"]) -> "Hops":
        return cls(*(np.concatenate(fields) for fields in zip(*parts, strict=True)))


def window_end(offsets: np.ndarray, t0: int, end: int) -> int:
    """First cycle after the window opening at ``t0``.

    ``offsets[t]`` counts the messages injected before cycle ``t``; the
    window closes after the first cycle that brings it to
    :data:`WINDOW_MESSAGES` (at least one cycle, at most ``end``).
    """
    t1 = int(np.searchsorted(offsets, offsets[t0] + WINDOW_MESSAGES, side="left"))
    return min(max(t1, t0 + 1), end)


def _port_order(port: np.ndarray, n_ports: int) -> np.ndarray:
    """Stable permutation grouping ``port`` ascending (radix when it fits)."""
    if n_ports <= np.iinfo(np.uint16).max:
        port = port.astype(np.uint16)
    return np.argsort(port, kind="stable")


def _segment_starts(port: np.ndarray) -> np.ndarray:
    """``True`` where a run of equal ``port`` values begins."""
    first = np.empty(port.size, dtype=bool)
    first[0] = True
    np.not_equal(port[1:], port[:-1], out=first[1:])
    return first


def _queue_depths(
    port: np.ndarray,
    start: np.ndarray,
    pushed: np.ndarray,
    t0: int,
    inclusive: bool,
) -> np.ndarray:
    """Each message's queue length right after its push, itself included.

    Arrays are grouped by port in FIFO order.  The queue then holds the
    messages at or before the pushed one in FIFO order that have not
    started yet: ``start >= push`` at stage 0 (``inclusive``), ``start >
    push`` after it.  Starts increase along a port's run, so those
    messages are a contiguous block that ends at the message itself.
    """
    span = int(start.max()) - t0 + 2
    key = port * span + (start - t0)
    probe = port * span + (pushed - t0)
    begin = np.searchsorted(key, probe, side="left" if inclusive else "right")
    return np.arange(1, port.size + 1) - begin


def _admitted(
    port: np.ndarray,
    arrival: np.ndarray,
    service: np.ndarray,
    start: np.ndarray,
    pushed: np.ndarray,
    first: np.ndarray,
    depth: np.ndarray,
    capacity: int,
    inclusive: bool,
) -> np.ndarray:
    """Which messages finite buffers of ``capacity`` admit (a mask).

    Arrays are grouped by port in FIFO order; ``start`` holds the
    infinite-buffer starts and ``depth`` the queue lengths they give.
    Each port is exact up to its first overflow (``depth > capacity``).
    From there every overflowing port is walked one message per step,
    all of them at once, keeping its next-free cycle and the starts of
    its last ``capacity`` admitted messages: a message is admitted iff
    the oldest of those has left the queue when it is pushed.
    """
    run = np.cumsum(first) - 1
    run_begin = np.flatnonzero(first)
    run_end = np.append(run_begin[1:], port.size)
    over = np.flatnonzero(depth > capacity)
    at = over[_segment_starts(run[over])]  # each overflowing port's first overflow
    end = run_end[run[at]]
    # ring[:, j]: port j's last `capacity` admitted starts, the oldest
    # at row oldest[j]; predecessors before the window have left
    back = at - capacity + np.arange(capacity)[:, None]
    ring = np.where(
        back >= run_begin[run[at]], start[np.maximum(back, 0)], np.iinfo(np.int64).min
    )
    oldest = np.zeros(at.size, dtype=np.int64)
    free = start[at - 1] + service[at - 1]  # a port's first message never overflows
    has_left = np.less if inclusive else np.less_equal
    keep = np.ones(port.size, dtype=bool)
    live = np.arange(at.size)
    while live.size:
        slot = oldest[live]
        ok = has_left(ring[slot, live], pushed[at])
        keep[at[~ok]] = False
        took, msg = live[ok], at[ok]
        begin = np.maximum(arrival[msg], free[took])
        ring[slot[ok], took] = begin
        oldest[took] = (slot[ok] + 1) % capacity
        free[took] = begin + service[msg]
        at = at + 1
        more = at < end[live]
        live, at = live[more], at[more]
    return keep


def _in_time_order(
    hops: Hops,
    index: np.ndarray,
    start: np.ndarray,
    by_time: np.ndarray,
    rows: Optional[np.ndarray],
) -> tuple:
    """``hops[index]``, ``start[by_time]`` and their waits.

    Given ``rows`` (an observed window's events buffer: start, port,
    wait, service, track), the observers' arrays are written straight
    into it.
    """
    if rows is None:
        hops = hops.take(index)
        start = start[by_time]
        return hops, start, start - hops.arrival
    start = np.take(start, by_time, out=rows[0], mode="clip")
    hops = Hops(
        np.take(hops.port, index, out=rows[1], mode="clip"),
        hops.arrival[index],
        hops.dest[index],
        np.take(hops.service, index, out=rows[3], mode="clip"),
        np.take(hops.track, index, out=rows[4], mode="clip"),
    )
    return hops, start, np.subtract(start, hops.arrival, out=rows[2])


def _lindley_starts(
    port: np.ndarray,
    arrival: np.ndarray,
    service: np.ndarray,
    free: np.ndarray,
    first: np.ndarray,
) -> np.ndarray:
    """Service starts of messages grouped by port, FIFO within a port.

    ``free[q]`` is the first cycle port ``q`` may start a service and
    ``first`` marks where each port's run begins.  Segmented form of
    ``start_i = max(arrival_i, start_{i-1} + service_{i-1})``.
    """
    done = np.cumsum(service)
    done -= service  # exclusive running sum over the whole array
    base = np.where(first, done, 0)
    np.maximum.accumulate(base, out=base)  # the running sum at each run's start
    done -= base     # exclusive running sum within each port's run
    lead = arrival - done
    heads = np.flatnonzero(first)
    lead[heads] = np.maximum(lead[heads], free[port[heads]])
    # a running maximum that restarts at every run: lift each run above
    # all earlier ones, accumulate, and drop the lift again
    low = int(lead.min())
    lift = np.cumsum(first) * (int(lead.max()) - low + 1) - low
    lead += lift
    np.maximum.accumulate(lead, out=lead)
    lead -= lift
    lead += done
    return lead


class StagewisePass:
    """Stage-by-stage evaluation of ``n_replicas`` disjoint networks from cycle 0.

    Ports are numbered ``replica * n_stages * width + stage * width +
    line`` and statistic bins ``replica * n_stages + stage``, as in the
    stacked engines; one replica is the serial engine.  Feed injections
    window by window to :meth:`advance`; the pass updates ``stats``,
    calls ``record`` for measured service starts, and keeps
    :attr:`completed`, :attr:`injected`, :attr:`dropped`,
    :attr:`high_water`, :attr:`free` and the queued messages
    (:meth:`queued`).  A ``capacity`` makes every queue a finite FIFO
    that drops overflow.  Every observer in :attr:`observers` gets a
    :class:`~repro.obs.base.WindowEvents` after each window.  Sanitizer
    errors name a replica only when the pass runs more than one.
    """

    def __init__(
        self,
        perm_stack: np.ndarray,
        shifts: np.ndarray,
        k: int,
        n_replicas: int,
        cut_through: bool,
        stats: StageAccumulator,
        record: Recorder,
        *,
        capacity: Optional[int] = None,
        sanitize: bool = False,
    ) -> None:
        self.n_stages, self.width = perm_stack.shape
        self.k = k
        self.n_replicas = n_replicas
        self.ports_per_replica = self.n_stages * self.width
        self.n_ports = n_replicas * self.ports_per_replica
        self.cut_through = cut_through
        self.stats = stats
        self.record = record
        self.capacity = capacity
        self.sanitize = sanitize
        #: observers called with each window's events
        self.observers: list = []
        self._events = np.empty((5, 0), dtype=np.int64)  # see reserve_events
        self._events_used = 0
        #: the routing tables (:func:`~repro.simulation.engine.build_routing_tables`)
        self.perm_stack = perm_stack.astype(np.int64, copy=False)
        self.shifts = np.asarray(shifts, dtype=np.int64)
        #: cycle the pass has reached (the next window opens here)
        self.now = 0
        #: first cycle each port may start a service: the last started
        #: message's start plus its service time
        self.free = np.zeros(self.n_ports, dtype=np.int64)
        #: per-port occupancy high-water marks
        self.high_water = np.zeros(self.n_ports, dtype=np.int64)
        self.completed = np.zeros(n_replicas, dtype=np.int64)
        self.injected = np.zeros(n_replicas, dtype=np.int64)
        #: messages refused by full buffers
        self.dropped = np.zeros(n_replicas, dtype=np.int64)
        self._queued = [Hops.empty() for _ in range(self.n_stages)]

    # ------------------------------------------------------------------
    def queued(self) -> Hops:
        """Every queued message, grouped by port in FIFO order."""
        return Hops.concat(self._queued)

    def reserve_events(self) -> None:
        """Allocate (and write, so its pages are mapped) the buffer an
        observed window's per-message arrays are written to: arrays kept
        alive until the window ends instead grew and shrank the heap
        every window, at some 2000 page faults per 500 cycles."""
        if self._events.shape[1] == 0:
            self._events = np.full((5, self.n_stages * (WINDOW_MESSAGES + 64)), 0, np.int64)

    @property
    def in_flight(self) -> int:
        """Messages queued anywhere, over all replicas."""
        return sum(held.port.size for held in self._queued)

    def advance(
        self,
        end: int,
        inject: Hops,
        measure_from: int,
        sources: Optional[np.ndarray] = None,
    ) -> None:
        """Evaluate cycles ``[now, end)``.

        ``inject`` holds the messages injected in those cycles, in
        injection order, each with its injection cycle as ``arrival``;
        service starts from ``measure_from`` on are recorded.
        ``sources`` (each injection's network input) rides along in the
        observers' events.
        """
        t0 = self.now
        if inject.port.size:
            self.injected += np.bincount(
                inject.port // self.ports_per_replica, minlength=self.n_replicas
            )
        events: Optional[list] = [] if self.observers else None
        self._events_used = 0
        arrivals, push = inject, inject.arrival
        for stage in range(self.n_stages):
            arrivals, push = self._stage(
                stage, t0, end, arrivals, push, measure_from, events
            )
        self.now = end
        if self.sanitize:
            self._check(end - 1)
        if events is not None:
            events[0] = events[0]._replace(
                injections=Injections(inject.arrival, sources, inject.port, inject.track)
            )
            window = WindowEvents(t0, end, measure_from, tuple(events))
            for observer in self.observers:
                observer.on_window(window)

    # ------------------------------------------------------------------
    def _stage(
        self,
        stage: int,
        t0: int,
        t1: int,
        new: Hops,
        push: np.ndarray,
        measure_from: int,
        events: Optional[list],
    ) -> tuple:
        """One stage of one window; returns the next stage's pushes."""
        held = self._queued[stage]
        n_held = held.port.size
        if n_held + new.port.size == 0:
            if events is not None:
                events.append(_NO_EVENTS)
            return Hops.empty(), _EMPTY
        hops = Hops.concat([held, new]) if n_held else new
        if n_held:
            # held messages were pushed in earlier windows, which counted
            # their occupancy; t0 - 1 stands in for their push cycle and
            # counts the queue as it stood when this window opened, which
            # never exceeds the mark already set
            push = np.concatenate([np.full(n_held, t0 - 1, dtype=np.int64), push])
        order = _port_order(hops.port, self.n_ports)
        port = hops.port[order]
        arrival = hops.arrival[order]
        service = hops.service[order]
        push = push[order]
        first = _segment_starts(port)
        start = _lindley_starts(port, arrival, service, self.free, first)
        depth = _queue_depths(port, start, push, t0, stage == 0)
        dropped = _EMPTY
        if self.capacity is not None and int(depth.max()) > self.capacity:
            keep = _admitted(
                port, arrival, service, start, push, first, depth, self.capacity, stage == 0
            )
            dropped = np.sort(push[~keep])
            self.dropped += np.bincount(
                port[~keep] // self.ports_per_replica, minlength=self.n_replicas
            )
            order, port, arrival, service, push = (
                a[keep] for a in (order, port, arrival, service, push)
            )
            first = _segment_starts(port)
            start = _lindley_starts(port, arrival, service, self.free, first)
            depth = _queue_depths(port, start, push, t0, stage == 0)
        np.maximum.at(self.high_water, port, depth)

        begun = start < t1  # a prefix of every port's run
        if begun.all():
            self._queued[stage] = Hops.empty()
        else:
            self._queued[stage] = hops.take(order[~begun])
            order, port, service, start, first = (
                a[begun] for a in (order, port, service, start, first)
            )
        if start.size:
            last = np.empty_like(first)
            last[:-1] = first[1:]
            last[-1] = True
            self.free[port[last]] = start[last] + service[last]
            # the recording order: by start cycle, then port
            by_time = np.argsort((start - t0) * self.n_ports + port)
            rows = None if events is None else self._event_rows(start.size)
            hops, start, wait = _in_time_order(hops, order[by_time], start, by_time, rows)
            self._record(stage, hops, start, wait, measure_from)
        else:
            hops, wait = Hops.empty(), _EMPTY
        if events is not None:
            events.append(
                StageEvents(start, hops.port, wait, hops.service, hops.track, dropped)
            )

        if stage == self.n_stages - 1:
            if self.n_replicas == 1:
                self.completed[0] += start.size
            else:
                self.completed += np.bincount(
                    hops.port // self.ports_per_replica, minlength=self.n_replicas
                )
            return Hops.empty(), _EMPTY
        return self._forward(stage, hops, start), start

    def _event_rows(self, n: int) -> np.ndarray:
        """The next ``n`` columns of the events buffer."""
        used = self._events_used
        if used + n > self._events.shape[1]:
            # the stages before keep their views of the old buffer
            self._events = np.empty((5, 2 * (used + n)), dtype=np.int64)
            used = 0
        self._events_used = used + n
        return self._events[:, used : used + n]

    def _record(
        self, stage: int, hops: Hops, start: np.ndarray, wait: np.ndarray, measure_from: int
    ) -> None:
        if start[-1] < measure_from:
            return
        if start[0] < measure_from:
            keep = start >= measure_from
            hops = hops.take(keep)
            start = start[keep]
            wait = wait[keep]
        waits = wait.astype(np.float64)
        stages = np.full(start.size, stage, dtype=np.int64)
        if self.n_replicas == 1:
            bins = stages
        else:
            bins = hops.port // self.ports_per_replica * self.n_stages + stage
        self.stats.add(bins, waits)
        self.record(hops.track, stages, waits)

    def _forward(self, stage: int, hops: Hops, start: np.ndarray) -> Hops:
        """Route started messages to their stage ``stage + 1`` queues."""
        width, k = self.width, self.k
        stage_base = hops.port - hops.port % width  # replica and stage offset
        line = hops.port - stage_base
        in_line = self.perm_stack[stage + 1, line]
        digit = hops.dest // self.shifts[stage + 1] % k
        port = stage_base + width + in_line // k * k + digit
        arrival = start + 1 if self.cut_through else start + hops.service
        return Hops(port, arrival, hops.dest, hops.service, hops.track)

    def _check(self, cycle: int) -> None:
        """Sanitizer: finite statistics, backlog and conservation at a window end."""
        stacked = self.n_replicas > 1
        check_stage_stats(
            self.stats, cycle=cycle, n_stages=self.n_stages if stacked else None
        )
        depths = np.bincount(self.queued().port, minlength=self.n_ports)
        check_queue_depths(
            depths,
            cycle=cycle,
            ports_per_replica=self.ports_per_replica if stacked else None,
        )
        in_flight = depths.reshape(self.n_replicas, -1).sum(axis=1)
        balance = self.injected - self.completed - in_flight - self.dropped
        for replica in np.flatnonzero(balance):
            check_conservation(
                int(self.injected[replica]),
                int(self.completed[replica]),
                int(in_flight[replica]),
                int(self.dropped[replica]),
                cycle=cycle,
                replica=int(replica) if stacked else None,
            )
