"""Per-cycle metrics collection (engine observer).

:class:`MetricsCollector` samples the engine every ``stride`` cycles
and records, per network stage, a bounded time series of:

* **queue depth** -- messages buffered at the stage's output ports;
* **busy ports** -- ports mid-transmission (utilization = busy/width);
* cumulative **injected / completed / dropped** message counts;
* running **waiting-time moments** (count, sum, sum of squares) of the
  measured waits, so any window's mean/variance is a difference of two
  samples.

A sample describes the end of its cycle ``t``.  The collector counts
it from the engine's window events (:mod:`repro.obs.base`): queue
depth is the pushes up to ``t`` less the service starts up to ``t``
(stage ``s``'s pushes are stage ``s - 1``'s starts, or the injections,
less the drops), busy ports are the starts up to ``t`` less the
services over by ``t``, and the wait moments are sums of the measured
waits started by ``t`` (exact: waits are integers).  The starts arrive
sorted by cycle, so each is a ``searchsorted`` at the window's sample
cycles plus a running total.  Observing a run perturbs neither its
sample path (observers never touch RNG streams) nor, materially, its
wall clock (the overhead benchmark holds it under 10%).

Memory is O(``capacity``) regardless of run length: samples live in a
ring buffer and the oldest are overwritten once ``capacity`` is
exceeded, keeping 100k-cycle production sweeps at constant footprint.
"""

from __future__ import annotations

from typing import Dict, Iterator

import numpy as np

from repro.errors import SimulationError
from repro.obs.base import EngineObserver

__all__ = ["MetricsCollector", "METRICS_RECORD_FIELDS"]

#: Field names of one exported metrics record (JSONL schema, version 1).
#: Per-stage fields hold one list entry per stage; the rest are scalars.
METRICS_RECORD_FIELDS = {
    "cycle": int,
    "queue_depth": list,
    "busy_ports": list,
    "utilization": list,
    "wait_count": list,
    "wait_sum": list,
    "wait_sumsq": list,
    "injected": int,
    "completed": int,
    "dropped": int,
    "in_flight": int,
}


def _sums_before(values: np.ndarray, bounds: np.ndarray) -> tuple:
    """The sums of ``values[:b]`` for each of the non-decreasing ``bounds``,
    and the sum of all ``values`` (exact: the waits are integers).

    One ``reduceat`` over the segments between the bounds costs a third
    of a full ``cumsum`` when there are few bounds, and allocates nothing
    the size of ``values``.
    """
    if values.size == 0:
        return np.zeros(bounds.size, dtype=np.int64), 0
    inner = bounds < values.size  # the others take the total
    cuts = np.concatenate(([0], bounds[inner]))
    segments = np.add.reduceat(values, cuts)
    segments[:-1][cuts[1:] == cuts[:-1]] = 0  # reduceat's empty segments
    sums = np.cumsum(segments)
    before = np.full(bounds.size, sums[-1])
    before[inner] = sums[:-1]
    return before, sums[-1]


def _services_over(cycle: np.ndarray, service: np.ndarray, points: np.ndarray):
    """How many of the services begun at ``cycle`` (ascending) are over by
    the end of each point: ``cycle + service <= t``."""
    if cycle.size == 0:
        return np.zeros(points.size, dtype=np.int64)
    low = service.min()
    if low == service.max():  # one service time: the end cycles keep the start order
        return np.searchsorted(cycle, points - low, side="right")
    return np.searchsorted(np.sort(cycle + service), points, side="right")


class MetricsCollector(EngineObserver):
    """Strided, ring-buffer-bounded per-stage metrics observer.

    Parameters
    ----------
    stride:
        Sample every ``stride``-th cycle (1 = every cycle).
    capacity:
        Maximum samples kept; older samples are overwritten (ring
        buffer).  ``stride * capacity`` cycles of history are retained.
    """

    def __init__(self, stride: int = 16, capacity: int = 4096) -> None:
        if stride < 1:
            raise SimulationError(f"stride must be >= 1, got {stride}")
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.stride = stride
        self.capacity = capacity
        self._engine = None
        self._taken = 0  # total samples ever taken (>= kept)

    # -- observer protocol ----------------------------------------------
    def on_attach(self, engine) -> None:
        self._engine = engine
        n, cap = engine.n_stages, self.capacity
        self._cycle = np.zeros(cap, dtype=np.int64)
        self._queue_depth = np.zeros((cap, n), dtype=np.int64)
        self._busy_ports = np.zeros((cap, n), dtype=np.int64)
        self._wait_count = np.zeros((cap, n), dtype=np.int64)
        self._wait_sum = np.zeros((cap, n), dtype=np.float64)
        self._wait_sumsq = np.zeros((cap, n), dtype=np.float64)
        self._injected = np.zeros(cap, dtype=np.int64)
        self._completed = np.zeros(cap, dtype=np.int64)
        self._dropped = np.zeros(cap, dtype=np.int64)
        # running state where the next window opens: per-stage queue
        # depths, each port's next-free cycle (sorted per stage), the raw
        # wait moments and the message counters
        self._depth = np.bincount(
            engine.evaluator.queued().port // engine.width, minlength=n
        )
        self._busy_until = self._next_free()
        self._moments = engine.stats.snapshot()
        self._counts = np.array(
            [engine.injected, engine.completed, engine.dropped], dtype=np.int64
        )

    def on_window(self, window) -> None:
        stride = self.stride
        points = np.arange(-(-window.start // stride) * stride, window.end, stride)
        if points.size > self.capacity:  # only the newest fit the ring
            self._taken += points.size - self.capacity
            points = points[-self.capacity:]
        stages = enumerate(window.stages)
        by_t, totals = zip(
            *(self._stage_counts(s, stage, points, window) for s, stage in stages), strict=True
        )
        started, refused, measured, sums, sumsq, busy_before, over = np.stack(by_t, axis=1)
        n_started, n_refused, n_measured, sum_total, sumsq_total = np.array(totals).T
        self._busy_until = self._next_free()
        injections = window.stages[0].injections
        injected_by = np.searchsorted(injections.cycle, points, side="right")
        pushed = np.vstack([injected_by, started[:-1]]) - refused
        depth = self._depth[:, None] + pushed - started
        self._depth += np.append(injections.cycle.size, n_started[:-1]) - n_refused - n_started
        count, total, total_sq = self._moments
        wait_count = count[:, None] + measured
        wait_sum = total[:, None] + sums
        wait_sumsq = total_sq[:, None] + sumsq
        count += n_measured
        total += sum_total
        total_sq += sumsq_total
        injected, completed, dropped = self._counts
        self._counts += (injections.cycle.size, n_started[-1], n_refused.sum())
        if points.size == 0:
            return
        i = (self._taken + np.arange(points.size)) % self.capacity
        self._cycle[i] = points
        self._queue_depth[i] = depth.T
        self._busy_ports[i] = (busy_before + started - over).T
        self._wait_count[i] = wait_count.T
        self._wait_sum[i] = wait_sum.T
        self._wait_sumsq[i] = wait_sumsq.T
        self._injected[i] = injected + injected_by
        self._completed[i] = completed + started[-1]
        self._dropped[i] = dropped + refused.sum(axis=0)
        self._taken += points.size

    def _stage_counts(self, s: int, stage, points: np.ndarray, window) -> tuple:
        """Stage ``s`` by each sample cycle ``t`` -- its starts, drops,
        measured waits and their sum and sum of squares, the ports still
        busy with a service begun before the window, and the window's
        services over -- and, over the whole window, the first five."""
        cycle, busy_until = stage.cycle, self._busy_until[s]
        lo = int(np.searchsorted(cycle, window.measure_from, side="left"))
        started = np.searchsorted(cycle, points, side="right")
        measured = np.maximum(started - lo, 0)
        waits = stage.wait[lo:]
        sums, sum_total = _sums_before(waits, measured)
        sumsq, sumsq_total = _sums_before(np.square(waits), measured)
        by_t = (
            started,
            np.searchsorted(stage.dropped, points, side="right"),
            measured,
            sums,
            sumsq,
            busy_until.size - np.searchsorted(busy_until, points, side="right"),
            _services_over(cycle, stage.service, points),
        )
        return by_t, (cycle.size, stage.dropped.size, waits.size, sum_total, sumsq_total)

    def _next_free(self) -> np.ndarray:
        """Each port's next-free cycle, sorted within each stage: a port is
        busy at the end of cycle ``t`` when it exceeds ``t``."""
        engine = self._engine
        return np.sort(engine.evaluator.free.reshape(engine.n_stages, -1), axis=1)

    # -- accessors ------------------------------------------------------
    @property
    def n_samples(self) -> int:
        """Samples currently held (<= capacity)."""
        return min(self._taken, self.capacity)

    @property
    def samples_taken(self) -> int:
        """Samples ever taken (overwritten ones included)."""
        return self._taken

    @property
    def samples_overwritten(self) -> int:
        """Samples lost to ring-buffer wraparound."""
        return max(self._taken - self.capacity, 0)

    def _ordered(self, arr: np.ndarray) -> np.ndarray:
        """A chronological copy of one ring array's valid samples."""
        if self._taken <= self.capacity:
            return arr[: self._taken].copy()
        i = self._taken % self.capacity
        return np.concatenate([arr[i:], arr[:i]])

    def series(self) -> Dict[str, np.ndarray]:
        """All kept samples, chronological, as named arrays.

        Per-stage arrays have shape ``(n_samples, n_stages)``; scalar
        counters have shape ``(n_samples,)``.  ``utilization`` is
        derived as busy ports over stage width.
        """
        if self._engine is None:
            raise SimulationError("MetricsCollector was never attached to an engine")
        width = float(self._engine.width)
        busy = self._ordered(self._busy_ports)
        return {
            "cycle": self._ordered(self._cycle),
            "queue_depth": self._ordered(self._queue_depth),
            "busy_ports": busy,
            "utilization": busy / width,
            "wait_count": self._ordered(self._wait_count),
            "wait_sum": self._ordered(self._wait_sum),
            "wait_sumsq": self._ordered(self._wait_sumsq),
            "injected": self._ordered(self._injected),
            "completed": self._ordered(self._completed),
            "dropped": self._ordered(self._dropped),
        }

    def records(self) -> Iterator[dict]:
        """Yield one JSON-ready dict per kept sample (the JSONL schema)."""
        s = self.series()
        for j in range(s["cycle"].size):
            yield {
                "cycle": int(s["cycle"][j]),
                "queue_depth": [int(x) for x in s["queue_depth"][j]],
                "busy_ports": [int(x) for x in s["busy_ports"][j]],
                "utilization": [float(x) for x in s["utilization"][j]],
                "wait_count": [int(x) for x in s["wait_count"][j]],
                "wait_sum": [float(x) for x in s["wait_sum"][j]],
                "wait_sumsq": [float(x) for x in s["wait_sumsq"][j]],
                "injected": int(s["injected"][j]),
                "completed": int(s["completed"][j]),
                "dropped": int(s["dropped"][j]),
                "in_flight": int(s["queue_depth"][j].sum()),
            }

    def summary(self) -> dict:
        """Aggregate digest of the kept window (JSON-ready)."""
        s = self.series()
        if s["cycle"].size == 0:
            return {"samples": 0}
        span = int(s["cycle"][-1] - s["cycle"][0]) or 1
        throughput = float(s["completed"][-1] - s["completed"][0]) / span
        return {
            "samples": int(s["cycle"].size),
            "stride": self.stride,
            "first_cycle": int(s["cycle"][0]),
            "last_cycle": int(s["cycle"][-1]),
            "samples_overwritten": self.samples_overwritten,
            "mean_queue_depth": [float(x) for x in s["queue_depth"].mean(axis=0)],
            "max_queue_depth": [int(x) for x in s["queue_depth"].max(axis=0)],
            "mean_utilization": [float(x) for x in s["utilization"].mean(axis=0)],
            "window_throughput": throughput,
            "injected": int(s["injected"][-1]),
            "completed": int(s["completed"][-1]),
            "dropped": int(s["dropped"][-1]),
        }

    def stage_wait_means(self) -> np.ndarray:
        """Latest running per-stage mean waits (NaN where unobserved)."""
        if self.n_samples == 0:
            raise SimulationError("no samples collected")
        s = self.series()
        count = s["wait_count"][-1].astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(count > 0, s["wait_sum"][-1] / count, np.nan)

    def __repr__(self) -> str:
        return (
            f"MetricsCollector(stride={self.stride}, capacity={self.capacity}, "
            f"samples={self.n_samples})"
        )
