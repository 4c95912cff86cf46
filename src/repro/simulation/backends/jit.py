"""Pre-drawn Numba backend: the whole multi-cycle loop in one kernel.

This backend runs every cycle's inject/serve/forward/tick as one
nopython function over preallocated arrays, so no Python dispatch is
left inside the loop.

Bit-identity by pre-drawing
---------------------------
All randomness of a batched run lives in the arrivals: the traffic
generator draws one ``(R, width)`` uniform block (plus destinations,
bulk/favourite extras, and service samples) per cycle, and the built-in
topologies route by destination digits -- no routing RNG is consumed
(``routing_shifts()`` is non-``None``; the stacked-run contract of
:func:`~repro.simulation.backends.resolve_backend`).  So the backend
first draws the arrivals of **all** cycles through
:meth:`~repro.simulation.batched.BatchedClockedEngine._predraw_window`
-- the per-cycle draws the NumPy backend evaluates window by window --
which yields bit-identical `SeedSequence`-derived draws.  The kernel
then consumes the pre-drawn arrivals with no RNG at all.

Inside the kernel, each per-port FIFO is a linked list over one shared
node pool (node id = pre-drawn message index; a message occupies one
queue at a time, so ids never collide).  Each cycle pops every ready
head *before* any forward push, so queue contents, busy counters, and
per-queue occupancy high-water marks evolve exactly as the paper's
clocked model (and :class:`~repro.simulation.engine.ClockedEngine`)
defines them.  Waiting times are integers, and float64 sums of integers
are exact below 2**53, so the kernel's sequential accumulation equals
the stage-wise pass's sums bit-for-bit (float32 tracker entries are
likewise exact below 2**24).

The kernel body is an ordinary Python function; with numba installed it
is compiled with ``@njit(cache=True)``, and without numba the same
function still runs (slowly) -- the always-on equivalence tests drive
it directly, so the algorithm is verified even where numba is absent.
It is the per-cycle reference the stage-wise pass is compared against
for ``R > 1``.
"""

from __future__ import annotations

# repro: lint-ok RPR001 -- phase timers are wall-clock bookkeeping; never enter results
from time import perf_counter
from typing import TYPE_CHECKING, Callable, List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.simulation.backends.base import register_backend
from repro.simulation.stagewise import Hops

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.simulation.batched import BatchedClockedEngine

__all__ = ["NumbaBackend", "numba_available", "cycle_loop_kernel"]

try:
    from numba import njit  # type: ignore[import-not-found,import-untyped]
except ImportError:  # pragma: no cover - exercised only without numba
    njit = None


def numba_available() -> bool:
    """Whether numba is importable in this environment."""
    return njit is not None


def cycle_loop_kernel(
    n_cycles: int,
    warmup: int,
    n_ports: int,
    ports_per_replica: int,
    n_stages: int,
    width: int,
    k: int,
    cut_through: bool,
    offsets: np.ndarray,
    ports: np.ndarray,
    dests: np.ndarray,
    services: np.ndarray,
    tracks: np.ndarray,
    perm_stack: np.ndarray,
    shifts: np.ndarray,
    busy: np.ndarray,
    bin_count: np.ndarray,
    bin_shift: np.ndarray,
    bin_total: np.ndarray,
    bin_total_sq: np.ndarray,
    tracker_waits: np.ndarray,
    completed: np.ndarray,
    q_high: np.ndarray,
    streaming: bool,
    msg_total: np.ndarray,
    msg_done: np.ndarray,
) -> int:
    """Simulate all cycles over pre-drawn arrivals; returns in-flight count.

    Mutates ``busy``, the stat bins (shifted sums, first value seen per
    bin becomes its shift -- see
    :class:`~repro.simulation.stats.StageAccumulator`), ``tracker_waits``,
    ``completed``, and ``q_high`` in place.  Pure integer/float
    arithmetic, nopython-compatible; the messages of cycle ``t`` are
    ``ports/dests/services/tracks[offsets[t]:offsets[t + 1]]``.

    With ``streaming`` set, ``tracks`` holds per-message ids into
    ``msg_total``/``msg_done`` instead of tracker rows: each measured
    message accumulates its total wait across stages in ``msg_total``
    and flips ``msg_done`` when it leaves the last stage, so summary
    statistics need no per-message stage matrix.
    """
    n_msgs = offsets[n_cycles]
    node_next = np.full(n_msgs, -1, dtype=np.int64)
    node_arrival = np.zeros(n_msgs, dtype=np.int64)
    q_head = np.full(n_ports, -1, dtype=np.int64)
    q_tail = np.full(n_ports, -1, dtype=np.int64)
    q_count = np.zeros(n_ports, dtype=np.int64)
    served_nodes = np.empty(n_ports, dtype=np.int64)
    served_ports = np.empty(n_ports, dtype=np.int64)

    for t in range(n_cycles):
        measuring = t >= warmup

        # -- inject: append this cycle's pre-drawn arrivals ------------
        for i in range(offsets[t], offsets[t + 1]):
            port = ports[i]
            node_arrival[i] = t
            if q_count[port] == 0:
                q_head[port] = i
            else:
                node_next[q_tail[port]] = i
            q_tail[port] = i
            q_count[port] += 1
            if q_count[port] > q_high[port]:
                q_high[port] = q_count[port]

        # -- serve: pop every ready head BEFORE any forward push -------
        # (the serial engine snapshots its candidates, then pops, then
        # pushes; two passes reproduce that exactly, including the
        # occupancy high-water accounting)
        n_served = 0
        for port in range(n_ports):
            if busy[port] != 0 or q_count[port] == 0:
                continue
            node = q_head[port]
            if node_arrival[node] > t:
                continue
            q_head[port] = node_next[node]
            q_count[port] -= 1
            if q_count[port] == 0:
                q_tail[port] = -1
            wait = float(t - node_arrival[node])
            rep = port // ports_per_replica
            local = port - rep * ports_per_replica
            stage = local // width
            if measuring:
                b = rep * n_stages + stage
                if bin_count[b] == 0:
                    bin_shift[b] = wait
                centered = wait - bin_shift[b]
                bin_count[b] += 1
                bin_total[b] += centered
                bin_total_sq[b] += centered * centered
                tid = tracks[node]
                if tid >= 0:
                    if streaming:
                        msg_total[tid] += wait
                    else:
                        tracker_waits[tid, stage] = wait
            busy[port] = services[node]
            served_nodes[n_served] = node
            served_ports[n_served] = port
            n_served += 1

        # -- forward: route every served message to its next stage -----
        for j in range(n_served):
            node = served_nodes[j]
            port = served_ports[j]
            rep = port // ports_per_replica
            local = port - rep * ports_per_replica
            stage = local // width
            if stage == n_stages - 1:
                completed[rep] += 1
                if streaming and tracks[node] >= 0:
                    msg_done[tracks[node]] = 1
                continue
            line = local - stage * width
            in_line = perm_stack[stage + 1, line]
            digit = (dests[node] // shifts[stage + 1]) % k
            next_line = (in_line // k) * k + digit
            next_port = rep * ports_per_replica + (stage + 1) * width + next_line
            if cut_through:
                node_arrival[node] = t + 1
            else:
                node_arrival[node] = t + services[node]
            node_next[node] = -1
            if q_count[next_port] == 0:
                q_head[next_port] = node
            else:
                node_next[q_tail[next_port]] = node
            q_tail[next_port] = node
            q_count[next_port] += 1
            if q_count[next_port] > q_high[next_port]:
                q_high[next_port] = q_count[next_port]

        # -- tick ------------------------------------------------------
        for port in range(n_ports):
            if busy[port] > 0:
                busy[port] -= 1

    in_flight = 0
    for port in range(n_ports):
        in_flight += q_count[port]
    return int(in_flight)


_compiled_loop: Optional[Callable] = (
    njit(cache=True)(cycle_loop_kernel) if njit is not None else None
)


def compiled_kernel() -> Optional[Callable]:
    """The ``@njit``-compiled cycle loop, or ``None`` without numba.

    Shared with the streamed engine (:mod:`repro.simulation.streamed`),
    which drives the same kernel over differently pre-drawn arrivals.
    """
    return _compiled_loop


@register_backend
class NumbaBackend:
    """JIT-compiled multi-cycle loop over pre-drawn arrivals.

    ``kernel`` defaults to the ``@njit``-compiled loop; the equivalence
    tests pass the interpreted :func:`cycle_loop_kernel` instead, which
    validates the pre-draw + kernel algorithm without numba installed.
    """

    name = "numba"
    requirement = "numba is not installed (pip install 'repro[numba]')"

    @classmethod
    def is_available(cls) -> bool:
        return numba_available()

    @classmethod
    def unsupported_reason(cls, engine: "Optional[BatchedClockedEngine]") -> Optional[str]:
        return None

    def __init__(self, kernel: Optional[Callable] = None) -> None:
        self._kernel = kernel

    # ------------------------------------------------------------------
    def run(self, engine: "BatchedClockedEngine", n_cycles: int, warmup: int) -> None:
        kernel = self._kernel if self._kernel is not None else _compiled_loop
        if kernel is None:
            raise SimulationError(self.requirement)
        timers = engine.timers

        t0 = perf_counter()
        windows: List[Hops] = []
        t = 0
        while t < n_cycles:
            t, window = engine._predraw_window(t, n_cycles)
            windows.append(window)
        arrivals = Hops.concat(windows)
        offsets = np.zeros(n_cycles + 1, dtype=np.int64)
        np.cumsum(np.bincount(arrivals.arrival, minlength=n_cycles), out=offsets[1:])
        t1 = perf_counter()
        q_high = np.zeros(engine.n_ports, dtype=np.int64)
        in_flight = kernel(
            n_cycles,
            warmup,
            engine.n_ports,
            engine.ports_per_replica,
            engine.n_stages,
            engine.width,
            engine.topology.k,
            engine.transfer == "cut_through",
            offsets,
            arrivals.port,
            arrivals.dest,
            arrivals.service,
            arrivals.track,
            engine._perm_stack.astype(np.int64, copy=False),
            engine._shifts,
            np.zeros(engine.n_ports, dtype=np.int64),
            engine.stats.count,
            engine.stats.shift,
            engine.stats.total,
            engine.stats.total_sq,
            engine.tracker.waits,
            engine.completed,
            q_high,
            False,
            np.zeros(1, dtype=np.float64),
            np.zeros(1, dtype=np.uint8),
        )
        t2 = perf_counter()

        engine.stats.refresh_unseen()
        engine._finalize(n_cycles, int(in_flight), q_high)
        if timers is not None:
            timers.add("predraw", t1 - t0, backend=self.name)
            timers.add("kernel", t2 - t1, backend=self.name)
