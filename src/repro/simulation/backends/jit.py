"""The compiled backend: the whole multi-cycle loop in one kernel.

:func:`cycle_loop_kernel` runs every cycle's inject/serve/forward/tick
as one nopython function over preallocated arrays, so no Python
dispatch is left inside the loop.  :func:`resolve_kernel` is the one
place a ``backend`` request (``"numpy"``, ``"numba"``, ``"auto"`` or a
kernel callable) is resolved, and :func:`run_kernel` the one place a
kernel is called.

Bit-identity by pre-drawing
---------------------------
All randomness of a run lives in the arrivals, and the built-in
topologies route by destination digits -- no routing RNG is consumed
(``routing_shifts()`` is non-``None``).  So a stacked run first draws
the arrivals of **all** cycles, window by window, exactly as the
stage-wise pass would be fed them
(:meth:`~repro.simulation.engine.ClockedEngine.predraw`), and a
streamed run pre-draws its replicas as always; the kernel then consumes
the pre-drawn arrivals with no RNG at all.

Inside the kernel, each per-port FIFO is a linked list over one shared
node pool (node id = pre-drawn message index; a message occupies one
queue at a time, so ids never collide).  Each cycle pops every ready
head *before* any forward push, so queue contents, busy counters, and
per-queue occupancy high-water marks evolve exactly as the paper's
clocked model defines them.  Waiting times are integers, and float64
sums of integers are exact below 2**53, so the kernel's sequential
accumulation equals the stage-wise pass's sums bit-for-bit (float32
tracker entries are likewise exact below 2**24).

The kernel body is an ordinary Python function; with numba installed it
is compiled with ``@njit(cache=True)``, and without numba the same
function still runs (slowly) -- the always-on equivalence tests pass it
as ``backend=cycle_loop_kernel``, so the algorithm is verified even
where numba is absent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.simulation.sanitize import (
    check_conservation,
    check_stage_stats,
    sanitizer_enabled,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.stagewise import Hops, StagewisePass

__all__ = [
    "BACKEND_CHOICES",
    "Backend",
    "cycle_loop_kernel",
    "numba_available",
    "resolve_kernel",
    "run_kernel",
]

try:
    from numba import njit  # type: ignore[import-not-found,import-untyped]
except ImportError:  # pragma: no cover - exercised only without numba
    njit = None

#: The backend names accepted wherever a backend is named (CLI, execution
#: context, ``run_many``); ``"auto"`` is the default everywhere.
BACKEND_CHOICES = ("numpy", "numba", "auto")

#: A backend request: one of :data:`BACKEND_CHOICES`, or a kernel
#: callable with :func:`cycle_loop_kernel`'s signature (the equivalence
#: tests pass the interpreted kernel itself).
Backend = Union[str, Callable[..., int]]


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


def resolve_kernel(backend: Backend) -> Tuple[Optional[Callable[..., int]], str]:
    """``(kernel, name)`` for a backend request.

    ``(None, "numpy")`` selects the stage-wise pass.  ``"auto"`` takes the
    compiled kernel when numba is importable and the pass otherwise;
    ``"numba"`` without numba raises.  A callable is used as the kernel
    and reported as ``"numba"``.  Results never depend on the choice.
    """
    if callable(backend) and not isinstance(backend, str):
        return backend, "numba"
    if backend == "numpy":
        return None, "numpy"
    if backend == "numba":
        if _compiled_loop is None:
            raise SimulationError(
                "backend 'numba' requested but numba is not installed "
                "(pip install 'repro[numba]')"
            )
        return _compiled_loop, "numba"
    if backend == "auto":
        return _compiled_loop, "numpy" if _compiled_loop is None else "numba"
    raise SimulationError(
        f"unknown compute backend {backend!r}: expected 'numpy', 'numba', "
        "'auto', or a kernel callable"
    )


def run_kernel(
    kernel: Callable[..., int],
    evaluator: "StagewisePass",
    n_cycles: int,
    measure_from: int,
    arrivals: "Hops",
    tracker_waits: np.ndarray,
    msg_total: Optional[np.ndarray] = None,
    msg_done: Optional[np.ndarray] = None,
) -> None:
    """Evaluate a whole run's pre-drawn arrivals with ``kernel``.

    ``arrivals`` holds every message injected in cycles ``[0,
    n_cycles)``, in injection order, each with its injection cycle as
    ``arrival``.  The kernel stands in for ``evaluator``'s windows: its
    statistics, per-replica ``injected``/``completed`` counts and
    high-water marks land where the pass keeps them, and ``evaluator``
    is left at ``n_cycles``, so the caller reads results the same way
    for either evaluator.  Tracked waits go to ``tracker_waits`` --
    or, given ``msg_total``/``msg_done`` (streaming summary mode), to
    per-message totals and completion flags.

    With the sanitizer armed the end state is checked: finite
    statistics, and message conservation against the messages the
    kernel left queued.
    """
    n_stages = evaluator.n_stages
    offsets = np.zeros(n_cycles + 1, dtype=np.int64)
    np.cumsum(np.bincount(arrivals.arrival, minlength=n_cycles), out=offsets[1:])
    streaming = msg_total is not None
    stats = evaluator.stats
    in_flight = kernel(
        n_cycles,
        measure_from,
        evaluator.n_ports,
        evaluator.ports_per_replica,
        n_stages,
        evaluator.width,
        evaluator.k,
        evaluator.cut_through,
        offsets,
        arrivals.port,
        arrivals.dest,
        arrivals.service,
        arrivals.track,
        evaluator.perm_stack,
        evaluator.shifts,
        np.zeros(evaluator.n_ports, dtype=np.int64),
        stats.count,
        stats.shift,
        stats.total,
        stats.total_sq,
        tracker_waits,
        evaluator.completed,
        evaluator.high_water,
        streaming,
        msg_total if streaming else np.zeros(1, dtype=np.float64),
        msg_done if streaming else np.zeros(1, dtype=np.uint8),
    )
    stats.refresh_unseen()
    evaluator.injected += np.bincount(
        arrivals.port // evaluator.ports_per_replica, minlength=evaluator.n_replicas
    )
    evaluator.now = n_cycles
    if sanitizer_enabled():
        # the kernel's queues are gone when it returns; its count of
        # the messages still in them is what conservation can check
        check_stage_stats(stats, cycle=n_cycles - 1, n_stages=n_stages)
        check_conservation(
            int(evaluator.injected.sum()),
            int(evaluator.completed.sum()),
            int(in_flight),
            int(evaluator.dropped.sum()),
            cycle=n_cycles - 1,
        )
