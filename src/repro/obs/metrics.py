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
sorted by cycle, so a window costs one ``searchsorted`` per stage at
its sample cycles (the starts by each and, when the service time is
fixed, the services over by each; a varying one counts its end cycles)
and one ``reduceat`` per stage over the waits and their squares, plus
running totals.  Observing a run perturbs neither its sample path
(observers never touch RNG streams) nor, materially, its wall clock
(the overhead benchmark holds it under 10%).

Memory is O(``capacity``) regardless of run length: samples live in a
ring buffer and the oldest are overwritten once ``capacity`` is
exceeded, keeping 100k-cycle production sweeps at constant footprint.
"""

from __future__ import annotations

from typing import Dict, Iterator

import numpy as np

from repro.errors import SimulationError
from repro.obs.base import EngineObserver
from repro.service.base import ServiceProcess

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
        self._scratch = np.empty((2, 0), dtype=np.int64)  # see _waits

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
        # the one service time of a model without variance, else 0 (a
        # source without a model, such as a scripted one, counts as mixed)
        service = getattr(engine.traffic[0], "service", None)
        fixed = isinstance(service, ServiceProcess) and service.variance() == 0
        self._service = int(service.mean) if fixed else 0
        self._counts = np.array(
            [engine.injected, engine.completed, engine.dropped], dtype=np.int64
        )

    def on_window(self, window) -> None:
        stride = self.stride
        points = np.arange(-(-window.start // stride) * stride, window.end, stride)
        if points.size > self.capacity:  # only the newest fit the ring
            self._taken += points.size - self.capacity
            points = points[-self.capacity:]
        stages, m = window.stages, points.size
        n_started = np.array([stage.cycle.size for stage in stages])
        n_refused = np.array([stage.dropped.size for stage in stages])
        # one search per stage: its starts before measure_from, by each
        # point and, for one service time (the end cycles then keep the
        # start order), the services over by each point
        fixed = self._service
        probes = np.concatenate(([window.measure_from - 1], points, points - fixed))
        counts = np.array([np.searchsorted(stage.cycle, probes, side="right") for stage in stages])
        lo, started, over = counts[:, 0], counts[:, 1 : m + 1], counts[:, m + 1 :]
        if not fixed:
            # the end cycles lose the start order: count them by offset
            # into the window (the last bin holds every end past it)
            span, at = window.end - window.start, points - window.start
            over = np.array([
                np.bincount(
                    np.minimum(stage.cycle + stage.service - window.start, span),
                    minlength=span + 1,
                ).cumsum()[at]
                for stage in stages
            ])
        if n_refused.any():
            refused = np.array(
                [np.searchsorted(stage.dropped, points, side="right") for stage in stages]
            )
        else:
            refused = np.zeros_like(started)
        # the measured waits and their squares summed between cuts at
        # measure_from and at each point, the last segment to the stage's
        # end: [sums, sums of squares] by each point, then in all
        measured_by = np.maximum(started, lo[:, None])
        cuts = np.hstack((lo[:, None], measured_by))
        segments = np.empty((2, len(stages), m + 1), dtype=np.int64)
        for s, stage in enumerate(stages):
            segments[:, s] = np.add.reduceat(self._waits(stage.wait), cuts[s], axis=1)
        segments[:, :, :m] *= cuts[:, :-1] < cuts[:, 1:]  # reduceat's empty segments
        sums = np.cumsum(segments, axis=2)
        busy_until, self._busy_until = self._busy_until, self._next_free()
        injections = window.stages[0].injections
        injected_by = np.searchsorted(injections.cycle, points, side="right")
        pushed = np.vstack([injected_by, started[:-1]]) - refused
        depth = self._depth[:, None] + pushed - started
        self._depth += np.append(injections.cycle.size, n_started[:-1]) - n_refused - n_started
        count, total, total_sq = self._moments
        wait_count = count[:, None] + measured_by - lo[:, None]
        wait_sum = total[:, None] + sums[0, :, :m]
        wait_sumsq = total_sq[:, None] + sums[1, :, :m]
        count += n_started - lo
        total += sums[0, :, m]
        total_sq += sums[1, :, m]
        injected, completed, dropped = self._counts
        self._counts += (injections.cycle.size, n_started[-1], n_refused.sum())
        if m == 0:
            return
        # ports still busy at each point with a service begun before the window
        busy_before = busy_until.shape[1] - np.array(
            [np.searchsorted(row, points, side="right") for row in busy_until]
        )
        i = (self._taken + np.arange(m)) % self.capacity
        self._cycle[i] = points
        self._queue_depth[i] = depth.T
        self._busy_ports[i] = (busy_before + started - over).T
        self._wait_count[i] = wait_count.T
        self._wait_sum[i] = wait_sum.T
        self._wait_sumsq[i] = wait_sumsq.T
        self._injected[i] = injected + injected_by
        self._completed[i] = completed + started[-1]
        self._dropped[i] = dropped + refused.sum(axis=0)
        self._taken += m

    def _waits(self, wait: np.ndarray) -> np.ndarray:
        """One stage's waits and their squares, with a zero column after
        them so that a ``reduceat`` may cut at the stage's end, in a
        scratch buffer kept across stages and windows: a stage's rows
        stay in cache while they are summed."""
        n = wait.size
        if self._scratch.shape[1] <= n:
            self._scratch = np.full((2, 2 * n + 1), 0, dtype=np.int64)
        rows = self._scratch[:, : n + 1]
        rows[0, :n] = wait
        rows[:, n] = 0
        np.square(rows[0, :n], out=rows[1, :n])
        return rows

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
