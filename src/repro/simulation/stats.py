"""Simulation output analysis.

The paper reports, per experiment: per-stage waiting-time means and
variances (Tables I--V), stage-to-stage correlations (Table VI), totals
across the network (Tables VII--XII), and full total-waiting-time
histograms (Figures 3--8).  This module supplies the estimators:

* :class:`StageAccumulator` -- streaming count/sum/sum-of-squares per
  stage, O(1) memory regardless of run length;
* :class:`TrackedMessages` -- a bounded per-message matrix of waiting
  times across stages, for correlations and totals;
* :func:`batch_means_ci` -- confidence intervals for steady-state means
  from a single long run (the standard batch-means method; simulation
  estimates without error bars are folklore, not measurements);
* :func:`histogram_pmf` -- normalised integer histogram for the figure
  overlays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy import stats as sps

from repro.errors import SimulationError
from repro.simulation.sanitize import check_merged_totals, sanitizer_enabled

__all__ = [
    "BatchedTrackedMessages",
    "MessageTotals",
    "QuantileSketch",
    "StageAccumulator",
    "StreamingTotals",
    "TotalsSummary",
    "TrackedMessages",
    "assign_track_ids",
    "batch_means_ci",
    "histogram_pmf",
]


class StageAccumulator:
    """Streaming first/second-moment accumulator per network stage.

    Sums are kept *shifted*: the first waiting time observed in a bin
    becomes that bin's fixed shift, and ``total`` / ``total_sq``
    accumulate ``x - shift`` and ``(x - shift)**2``.  Waiting times in a
    clocked network are integer-valued, so the shifted sums stay exact
    integers (below 2**53) and the two-pass-equivalent variance formula
    no longer cancels catastrophically when the mean is large relative
    to the spread -- the naive ``total_sq - n * mean**2`` form loses all
    significant digits once ``mean**2`` dwarfs the variance.
    """

    def __init__(self, n_stages: int) -> None:
        if n_stages < 1:
            raise SimulationError(f"need >= 1 stage, got {n_stages}")
        self.n_stages = n_stages
        self.count = np.zeros(n_stages, dtype=np.int64)
        self.shift = np.zeros(n_stages, dtype=np.float64)
        self.total = np.zeros(n_stages, dtype=np.float64)
        self.total_sq = np.zeros(n_stages, dtype=np.float64)
        self._n_unseen = n_stages

    def add(self, stages: "int | np.ndarray", waits: np.ndarray) -> None:
        """Record waiting times ``waits`` observed at ``stages``: one bin
        for them all (an int) or one bin each (an array)."""
        if waits.size == 0:
            return
        waits = waits.astype(np.float64, copy=False)
        if np.ndim(stages) == 0:
            # one bin: plain sums, exact as the bincounts are for integer
            # waits.  Not a BLAS dot: it threads above 10^4 values, and a
            # 12 000-value dot took 0.5 ms on a 2-vCPU VM (this sum 16 us)
            stage = int(stages)
            if self.count[stage] == 0:
                self.shift[stage] = waits[0]
                self._n_unseen -= 1
            centered = waits - self.shift[stage]
            self.count[stage] += waits.size
            self.total[stage] += centered.sum()
            self.total_sq[stage] += np.square(centered, out=centered).sum()
            return
        n = self.n_stages
        if self._n_unseen:
            # A bin's shift is the first value it ever sees (np.unique
            # returns first-occurrence indices), as in the one-bin case.
            bins, first = np.unique(stages, return_index=True)
            fresh = self.count[bins] == 0
            if fresh.any():
                self.shift[bins[fresh]] = waits[first[fresh]]
                self._n_unseen -= int(fresh.sum())
        centered = waits - self.shift[stages]
        self.count += np.bincount(stages, minlength=n)
        self.total += np.bincount(stages, weights=centered, minlength=n)
        self.total_sq += np.bincount(stages, weights=centered * centered, minlength=n)

    def snapshot(self) -> tuple:
        """``(count, total, total_sq)`` copies of the *raw* running sums.

        The raw (un-shifted) moments, not the derived mean/variance:
        metrics samplers (:class:`~repro.obs.metrics.MetricsCollector`)
        store these cumulative snapshots so any window's statistics are
        a difference of two samples.  Un-shifting is exact for the
        integer-valued waits the engines produce.
        """
        n = self.count.astype(np.float64)
        raw_total = self.total + n * self.shift
        raw_sq = self.total_sq + 2.0 * self.shift * self.total + n * self.shift * self.shift
        return self.count.copy(), raw_total, raw_sq

    def means(self) -> np.ndarray:
        """Per-stage sample mean waiting time."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self.count > 0, self.shift + self.total / self.count, np.nan)

    def variances(self) -> np.ndarray:
        """Per-stage sample variance (denominator ``n - 1``).

        Computed from the shifted sums, so the subtraction happens
        between quantities of the same (small) magnitude instead of
        between ``total_sq`` and ``n * mean**2``.
        """
        with np.errstate(invalid="ignore", divide="ignore"):
            n = self.count.astype(np.float64)
            var = (self.total_sq - self.total * self.total / n) / (n - 1)
            return np.where(self.count > 1, var, np.nan)


def assign_track_ids(replicas: np.ndarray, taken: np.ndarray, limit: int) -> np.ndarray:
    """Tracker ids for messages in injection order, in one vectorised step.

    Replica ``r``'s messages get ``r * limit + taken[r]``, ``+ 1``, ...
    in the order given, and -1 once ``limit`` ids are handed out;
    ``taken`` (one count per replica) advances in place.  These are the
    ids one-message-at-a-time allocation would hand out, so they depend
    neither on how the messages are split into windows nor on the other
    replicas' messages.
    """
    counts = np.bincount(replicas, minlength=taken.size)
    if taken.size == 1:
        local = taken[0] + np.arange(replicas.size)
    else:
        by_replica = np.argsort(replicas, kind="stable")
        group_start = np.cumsum(counts) - counts
        rank = np.empty(replicas.size, dtype=np.int64)
        rank[by_replica] = np.arange(replicas.size) - group_start[replicas[by_replica]]
        local = taken[replicas] + rank
    np.minimum(taken + counts, limit, out=taken)
    return np.where(local < limit, replicas * limit + local, -1)


def _tracked(track_ids: np.ndarray, waits: np.ndarray) -> tuple:
    """The ids ``>= 0`` and their waits; both as given when every id is."""
    if track_ids.size and track_ids.min() < 0:
        live = track_ids >= 0
        return track_ids[live], waits[live]
    return track_ids, waits


class TrackedMessages:
    """Per-message waiting times across all stages, for a bounded cohort.

    Slots are handed out sequentially (:meth:`assign`); messages beyond
    ``limit`` are simply not tracked (the streaming accumulators still
    see them).  A message's row is *complete* once its last-stage wait
    is recorded.  :attr:`waits` holds a row for every slot handed out
    (it grows by doubling, up to ``limit`` rows), so a short run with
    the default limit does not allocate the full matrix.
    """

    #: rows allocated up front; :meth:`assign` grows the matrix
    INITIAL_ROWS = 1024

    def __init__(self, limit: int, n_stages: int) -> None:
        if limit < 1:
            raise SimulationError(f"tracking limit must be >= 1, got {limit}")
        self.limit = limit
        self.n_stages = n_stages
        self.waits = np.full(
            (min(limit, self.INITIAL_ROWS), n_stages), -1.0, dtype=np.float32
        )
        self._taken = np.zeros(1, dtype=np.int64)

    @classmethod
    def from_rows(cls, rows: np.ndarray, n_stages: int) -> "TrackedMessages":
        """Rebuild a tracker from stored complete rows.

        Used when a run is rehydrated from the result cache or shipped
        back from a worker process (:mod:`repro.exec`): only the
        completed cohort survives serialisation, so the rebuilt tracker
        reproduces ``complete_rows()`` / ``totals()`` /
        ``stage_correlations()`` bit-for-bit but reports ``allocated``
        as the completed count.
        """
        rows = np.asarray(rows, dtype=np.float32).reshape(-1, n_stages)
        tracker = cls(limit=max(1, rows.shape[0]), n_stages=n_stages)
        if rows.shape[0]:
            tracker.waits = rows.copy()
            tracker._taken[0] = rows.shape[0]
        return tracker

    def assign(self, replicas: np.ndarray, cycles: np.ndarray) -> np.ndarray:
        """Slot ids for messages injected at ``cycles`` (ascending), in
        order (:func:`assign_track_ids`; ``replicas`` is all zeros).

        :attr:`waits` grows as if the slots were handed out a cycle at a
        time: whenever a cycle's slots overflow it, to twice its rows or
        to that cycle's last slot, whichever is more.
        """
        start = self.allocated
        ids = assign_track_ids(replicas, self._taken, self.limit)
        rows = self.waits.shape[0]
        if self.allocated > rows:
            grown = rows
            while grown < self.allocated:
                # the first cycle with a slot past the matrix, and its last slot
                cycle_end = np.searchsorted(cycles, cycles[grown - start], side="right")
                grown = min(self.limit, max(start + int(cycle_end), 2 * grown))
            waits = np.full((grown, self.n_stages), -1.0, dtype=np.float32)
            waits[:rows] = self.waits
            self.waits = waits
        return ids

    @property
    def allocated(self) -> int:
        """Number of slots handed out so far."""
        return int(self._taken[0])

    def record(self, track_ids: np.ndarray, stage: int, waits: np.ndarray) -> None:
        """Record stage ``stage`` waits for the tracked subset (ids ``>= 0``)."""
        track_ids, waits = _tracked(track_ids, waits)
        self.waits[track_ids, stage] = waits

    def complete_rows(self) -> np.ndarray:
        """Waiting-time matrix of messages that finished every stage."""
        filled = self.waits[: self.allocated]
        done = (filled >= 0).all(axis=1)
        return filled[done].astype(np.float64)

    def replica_tracker(self, replica: int) -> "TrackedMessages":
        """The complete rows alone, as a cached result holds them (see
        :meth:`BatchedTrackedMessages.replica_tracker`; one replica, 0)."""
        return TrackedMessages.from_rows(self.complete_rows(), self.n_stages)

    def totals(self) -> np.ndarray:
        """Total network waiting time of each completed message."""
        return self.complete_rows().sum(axis=1)

    def stage_correlations(self) -> np.ndarray:
        """Correlation matrix of per-stage waits (paper Table VI)."""
        rows = self.complete_rows()
        if rows.shape[0] < 2:
            raise SimulationError("not enough completed messages for correlations")
        return np.corrcoef(rows, rowvar=False)


class BatchedTrackedMessages:
    """Per-message waiting times for ``n_replicas`` independent cohorts.

    One contiguous ``(n_replicas * rows, n_stages)`` matrix; replica
    ``r`` owns rows ``[r * rows, (r + 1) * rows)``.  Slots are handed
    out per replica as :class:`TrackedMessages` hands them out --
    sequential ids, -1 once a replica's quota is exhausted -- so a batch
    of one replica assigns the exact id sequence a serial tracker would.

    ``rows`` defaults to ``limit``.  A run that cannot fill ``limit``
    rows per replica passes the most measured messages a replica can
    inject in it instead, and the matrix shrinks to that; a replica that
    injects more is refused rather than left partly untracked.
    """

    def __init__(
        self, n_replicas: int, limit: int, n_stages: int, rows: Optional[int] = None
    ) -> None:
        if n_replicas < 1:
            raise SimulationError(f"need >= 1 replica, got {n_replicas}")
        if limit < 1:
            raise SimulationError(f"tracking limit must be >= 1, got {limit}")
        self.n_replicas = n_replicas
        self.limit = limit
        self.n_stages = n_stages
        #: rows each replica owns (at most ``limit``)
        self.rows = limit if rows is None else min(rows, limit)
        if self.rows < 1:
            raise SimulationError(f"need >= 1 tracker row per replica, got {rows}")
        self.waits = np.full((n_replicas * self.rows, n_stages), -1.0, dtype=np.float32)
        self._taken = np.zeros(n_replicas, dtype=np.int64)

    def assign(self, replicas: np.ndarray, cycles: np.ndarray) -> np.ndarray:
        """Slot ids for messages injected at ``cycles`` by ``replicas``,
        in injection order (:func:`assign_track_ids`); the matrix holds
        every row up front."""
        ids = assign_track_ids(replicas, self._taken, self.rows)
        if self.rows < self.limit and (ids < 0).any():
            raise SimulationError(
                f"a replica injected more than the {self.rows} measured messages "
                "its tracker rows were sized for"
            )
        return ids

    def record(self, track_ids: np.ndarray, stage: int, waits: np.ndarray) -> None:
        """Record stage ``stage`` waits for the tracked subset (ids ``>= 0``)."""
        track_ids, waits = _tracked(track_ids, waits)
        self.waits[track_ids, stage] = waits

    def replica_tracker(self, replica: int) -> TrackedMessages:
        """A standalone :class:`TrackedMessages` view of one replica.

        Rebuilt from the replica's complete rows, exactly as a cached or
        worker-shipped serial result is (:meth:`TrackedMessages.from_rows`),
        so downstream totals/correlations code needs no batch awareness.
        """
        first = replica * self.rows
        block = self.waits[first : first + int(self._taken[replica])]
        done = (block >= 0).all(axis=1)
        return TrackedMessages.from_rows(block[done], self.n_stages)


class MessageTotals:
    """Per-message total waits of a streaming summary run (``track_limit=0``).

    Every measured message gets the next id (:meth:`assign`, injection
    order); :meth:`record` sums its waits over the stages and flags it
    once its last-stage service starts.  :meth:`summary` reduces the
    completed ones to a :class:`StreamingTotals`.  The arrays grow by
    half again as needed.
    """

    def __init__(self, n_replicas: int, n_stages: int) -> None:
        self.n_replicas = n_replicas
        self.n_stages = n_stages
        self.allocated = 0
        self.total = np.zeros(1, dtype=np.float64)
        self.done = np.zeros(1, dtype=np.uint8)
        self.replica = np.zeros(1, dtype=np.int32)

    def assign(self, replicas: np.ndarray, cycles: np.ndarray) -> np.ndarray:
        """Consecutive ids for messages of ``replicas``, in order."""
        start, end = self.allocated, self.allocated + replicas.size
        if end > self.total.size:
            grow = max(end, self.total.size * 3 // 2) - self.total.size
            self.total = np.concatenate([self.total, np.zeros(grow)])
            self.done = np.concatenate([self.done, np.zeros(grow, np.uint8)])
            self.replica = np.concatenate([self.replica, np.zeros(grow, np.int32)])
        self.replica[start:end] = replicas
        self.allocated = end
        return np.arange(start, end)

    def record(self, track_ids: np.ndarray, stage: int, waits: np.ndarray) -> None:
        """Add stage ``stage`` waits to their messages' totals (ids ``>= 0``)."""
        ids, waits = _tracked(track_ids, waits)
        self.total[ids] += waits
        if stage == self.n_stages - 1:
            self.done[ids] = 1

    def summary(self, n_markers: int, tail_k: int) -> "StreamingTotals":
        """The completed messages' totals, per replica and merged."""
        done = self.done[: self.allocated].astype(bool)
        return StreamingTotals.from_totals(
            self.total[: self.allocated][done],
            self.replica[: self.allocated][done],
            self.n_replicas,
            n_markers=n_markers,
            tail_k=tail_k,
        )


@dataclass(frozen=True)
class TotalsSummary:
    """Moment summary of one replica's completed total waiting times.

    The streaming-mode replacement for ``tracked.totals()``: five
    scalars instead of a per-message matrix.  ``m2`` is the centered sum
    of squares (``sum((x - mean)**2)``), computed shifted by the sample
    minimum so the arithmetic is exact for the integer-valued totals a
    clocked network produces.
    """

    count: int
    mean: float
    m2: float
    minimum: float
    maximum: float

    @classmethod
    def from_values(cls, values: np.ndarray) -> "TotalsSummary":
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return cls(count=0, mean=float("nan"), m2=0.0,
                       minimum=float("nan"), maximum=float("nan"))
        lo = float(values.min())
        d = values - lo
        s1 = float(d.sum())
        s2 = float((d * d).sum())
        n = values.size
        return cls(
            count=n,
            mean=lo + s1 / n,
            m2=s2 - s1 * s1 / n,
            minimum=lo,
            maximum=float(values.max()),
        )

    @property
    def variance(self) -> float:
        """Sample variance (denominator ``n - 1``)."""
        if self.count < 2:
            return float("nan")
        return self.m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))


class QuantileSketch:
    """Deterministic fixed-size quantile summary of a large sample.

    In the spirit of the P\\ :sup:`2` algorithm (Jain & Chlamtac 1985)
    the sketch keeps a bounded set of quantile markers instead of the
    sample itself; here the markers are built in one deterministic batch
    pass (the values at a fixed probability grid) rather than by online
    parabolic adjustment, so equal inputs always produce bit-identical
    sketches.  Merging reconstructs a count-weighted mixture CDF on the
    union of marker values and re-reads the grid from it -- approximate,
    but deterministic, and the error is bounded by the grid resolution
    (asserted against exact quantiles in the test suite).
    """

    def __init__(self, probs: np.ndarray, knots: np.ndarray, count: int) -> None:
        self.probs = np.asarray(probs, dtype=np.float64)
        self.knots = np.asarray(knots, dtype=np.float64)
        self.count = int(count)
        if self.probs.shape != self.knots.shape:
            raise SimulationError("probability grid and knots must align")

    @classmethod
    def from_values(cls, values: np.ndarray, n_markers: int = 129) -> "QuantileSketch":
        """Build a sketch from raw observations (one deterministic pass)."""
        if n_markers < 3:
            raise SimulationError(f"need >= 3 markers, got {n_markers}")
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise SimulationError("cannot sketch an empty sample")
        probs = np.linspace(0.0, 1.0, n_markers)
        knots = np.quantile(values, probs)
        return cls(probs, knots, values.size)

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile by interpolating the marker grid."""
        if not 0.0 <= q <= 1.0:
            raise SimulationError(f"quantile must be in [0, 1], got {q}")
        return float(np.interp(q, self.probs, self.knots))

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """Approximate ``P(value <= x)`` from the marker grid."""
        x = np.asarray(x, dtype=np.float64)
        return np.interp(x, self.knots, self.probs, left=0.0, right=1.0)

    def pmf(self, n_bins: int) -> np.ndarray:
        """Approximate integer pmf for figure overlays.

        ``out[j] ~= P(value == j)`` read off the sketch CDF at half-integer
        boundaries; mass above ``n_bins`` stays in the CDF (the returned
        vector sums to ``cdf(n_bins - 0.5)``), mirroring
        :func:`histogram_pmf` with ``tail="keep"``.
        """
        if n_bins < 1:
            raise SimulationError(f"need >= 1 bin, got {n_bins}")
        edges = np.arange(n_bins + 1) - 0.5
        cdf = self.cdf(edges)
        return np.diff(cdf)

    @classmethod
    def merge(cls, sketches: Sequence["QuantileSketch"]) -> "QuantileSketch":
        """Count-weighted merge of several sketches (deterministic)."""
        sketches = [s for s in sketches if s.count > 0]
        if not sketches:
            raise SimulationError("cannot merge zero sketches")
        if len(sketches) == 1:
            only = sketches[0]
            return cls(only.probs.copy(), only.knots.copy(), only.count)
        probs = sketches[0].probs
        for s in sketches[1:]:
            if not np.array_equal(s.probs, probs):
                raise SimulationError("cannot merge sketches with different grids")
        grid = np.unique(np.concatenate([s.knots for s in sketches]))
        total = sum(s.count for s in sketches)
        mixture = np.zeros_like(grid)
        for s in sketches:
            mixture += (s.count / total) * s.cdf(grid)
        # np.interp needs increasing xp; the mixture CDF is nondecreasing,
        # and exact plateaus resolve to the first grid value, which is the
        # deterministic choice we document.
        knots = np.interp(probs, mixture, grid)
        knots[0] = grid[0]
        knots[-1] = grid[-1]
        return cls(probs.copy(), knots, total)


@dataclass
class StreamingTotals:
    """Streaming summary of total waiting times across ``R`` replicas.

    Holds O(R) per-replica moment state (exact, order-free shifted sums)
    plus one bounded :class:`QuantileSketch` and an exact top-``tail_k``
    reservoir -- everything Tables VII--XII and the Figure 3--8 overlays
    need, with no per-message matrix anywhere.

    Merging shards with :meth:`concat` concatenates the per-replica
    arrays in replica order, so every moment (global and per replica) is
    **bit-identical regardless of how the batch was sharded**; the
    sketch merge is deterministic but approximate (bounded by the marker
    grid), and the tail merge is exact (top-k of a union is the union of
    top-ks).
    """

    counts: np.ndarray       # (R,) int64 completed messages per replica
    mins: np.ndarray         # (R,) float64, +inf where a replica saw none
    maxs: np.ndarray         # (R,) float64, -inf where a replica saw none
    sums_shifted: np.ndarray    # (R,) sum(x - min_r)
    sumsq_shifted: np.ndarray   # (R,) sum((x - min_r)**2)
    sketch: Optional[QuantileSketch]
    tail: np.ndarray         # descending, at most tail_k values
    tail_k: int

    @classmethod
    def from_totals(
        cls,
        totals: np.ndarray,
        replicas: np.ndarray,
        n_replicas: int,
        *,
        n_markers: int = 129,
        tail_k: int = 1024,
    ) -> "StreamingTotals":
        """Summarise one contiguous run (or shard) of ``n_replicas`` replicas.

        ``totals[i]`` is a completed message's total wait and
        ``replicas[i]`` the replica that produced it (any order).
        """
        totals = np.asarray(totals, dtype=np.float64)
        replicas = np.asarray(replicas, dtype=np.int64)
        if totals.shape != replicas.shape:
            raise SimulationError("totals and replicas must align")
        counts = np.bincount(replicas, minlength=n_replicas)
        mins = np.full(n_replicas, np.inf)
        maxs = np.full(n_replicas, -np.inf)
        if totals.size:
            np.minimum.at(mins, replicas, totals)
            np.maximum.at(maxs, replicas, totals)
            centered = totals - mins[replicas]
            sums = np.bincount(replicas, weights=centered, minlength=n_replicas)
            sumsq = np.bincount(replicas, weights=centered * centered, minlength=n_replicas)
        else:
            sums = np.zeros(n_replicas)
            sumsq = np.zeros(n_replicas)
        sketch = QuantileSketch.from_values(totals, n_markers) if totals.size else None
        if totals.size and tail_k > 0:
            k = min(tail_k, totals.size)
            top = np.partition(totals, totals.size - k)[totals.size - k:]
            tail = np.sort(top)[::-1].copy()
        else:
            tail = np.empty(0, dtype=np.float64)
        return cls(counts, mins, maxs, sums, sumsq, sketch, tail, tail_k)

    @classmethod
    def concat(cls, parts: Sequence["StreamingTotals"]) -> "StreamingTotals":
        """Merge shard summaries; shards must be in replica order."""
        if not parts:
            raise SimulationError("cannot merge zero summaries")
        tail_k = parts[0].tail_k
        counts = np.concatenate([p.counts for p in parts])
        mins = np.concatenate([p.mins for p in parts])
        maxs = np.concatenate([p.maxs for p in parts])
        sums = np.concatenate([p.sums_shifted for p in parts])
        sumsq = np.concatenate([p.sumsq_shifted for p in parts])
        sketches = [p.sketch for p in parts if p.sketch is not None]
        sketch = QuantileSketch.merge(sketches) if sketches else None
        tails = np.concatenate([p.tail for p in parts])
        if tails.size > tail_k:
            k = tail_k
            top = np.partition(tails, tails.size - k)[tails.size - k:]
            tail = np.sort(top)[::-1].copy()
        else:
            tail = np.sort(tails)[::-1].copy()
        merged = cls(counts, mins, maxs, sums, sumsq, sketch, tail, tail_k)
        if sanitizer_enabled():
            check_merged_totals(merged, parts)
        return merged

    @property
    def n_replicas(self) -> int:
        return int(self.counts.size)

    @property
    def count(self) -> int:
        """Completed messages across all replicas."""
        return int(self.counts.sum())

    @property
    def minimum(self) -> float:
        lo = self.mins[self.counts > 0]
        return float(lo.min()) if lo.size else float("nan")

    @property
    def maximum(self) -> float:
        hi = self.maxs[self.counts > 0]
        return float(hi.max()) if hi.size else float("nan")

    def _global_shifted(self) -> tuple:
        """Exact global shifted sums (shift = global minimum)."""
        seen = self.counts > 0
        if not seen.any():
            return 0.0, 0.0, float("nan")
        gmin = float(self.mins[seen].min())
        # Re-shift each replica's exact sums from its own minimum to the
        # global minimum; all terms are integer-valued, so this is exact.
        off = self.mins[seen] - gmin
        n_r = self.counts[seen].astype(np.float64)
        s1 = float((self.sums_shifted[seen] + n_r * off).sum())
        s2 = float(
            (
                self.sumsq_shifted[seen]
                + 2.0 * off * self.sums_shifted[seen]
                + n_r * off * off
            ).sum()
        )
        return s1, s2, gmin

    @property
    def mean(self) -> float:
        """Grand mean total wait (bit-identical across shardings)."""
        n = self.count
        if n == 0:
            return float("nan")
        s1, _, gmin = self._global_shifted()
        return gmin + s1 / n

    @property
    def variance(self) -> float:
        """Pooled sample variance of all completed totals."""
        n = self.count
        if n < 2:
            return float("nan")
        s1, s2, _ = self._global_shifted()
        return (s2 - s1 * s1 / n) / (n - 1)

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))

    def replica_means(self) -> np.ndarray:
        """Per-replica mean total wait (NaN where a replica completed none)."""
        with np.errstate(invalid="ignore", divide="ignore"):
            means = self.mins + self.sums_shifted / self.counts
        return np.where(self.counts > 0, means, np.nan)

    def replica_summary(self, replica: int) -> TotalsSummary:
        """One replica's :class:`TotalsSummary` (for per-result plumbing)."""
        n = int(self.counts[replica])
        if n == 0:
            return TotalsSummary(count=0, mean=float("nan"), m2=0.0,
                                 minimum=float("nan"), maximum=float("nan"))
        s1 = float(self.sums_shifted[replica])
        s2 = float(self.sumsq_shifted[replica])
        lo = float(self.mins[replica])
        return TotalsSummary(
            count=n,
            mean=lo + s1 / n,
            m2=s2 - s1 * s1 / n,
            minimum=lo,
            maximum=float(self.maxs[replica]),
        )

    def quantile(self, q: float) -> float:
        """Approximate total-wait quantile from the merged sketch."""
        if self.sketch is None:
            raise SimulationError("no observations were sketched")
        return self.sketch.quantile(q)

    def pmf(self, n_bins: int) -> np.ndarray:
        """Approximate total-wait pmf for figure overlays (see sketch)."""
        if self.sketch is None:
            raise SimulationError("no observations were sketched")
        return self.sketch.pmf(n_bins)


class BatchMeansResult(NamedTuple):
    """Point estimate with a batch-means confidence interval."""

    mean: float
    half_width: float
    n_batches: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width


def batch_means_ci(
    samples: np.ndarray, n_batches: int = 20, confidence: float = 0.95
) -> BatchMeansResult:
    """Batch-means confidence interval for a steady-state mean.

    Splits an (approximately stationary) sample path into ``n_batches``
    contiguous batches; the batch means are nearly independent for
    batches much longer than the autocorrelation time, so a Student-t
    interval on them is honest where a naive i.i.d. interval is not.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if n_batches < 2:
        raise SimulationError("need at least 2 batches")
    if samples.size < 2 * n_batches:
        raise SimulationError(
            f"{samples.size} samples is too few for {n_batches} batches"
        )
    usable = samples.size - samples.size % n_batches
    batches = samples[:usable].reshape(n_batches, -1).mean(axis=1)
    mean = float(batches.mean())
    sem = float(batches.std(ddof=1) / np.sqrt(n_batches))
    t = float(sps.t.ppf(0.5 + confidence / 2, df=n_batches - 1))
    return BatchMeansResult(mean=mean, half_width=t * sem, n_batches=n_batches)


def histogram_pmf(
    values: np.ndarray, n_bins: Optional[int] = None, *, tail: str = "raise"
) -> np.ndarray:
    """Normalised histogram of integer-valued observations.

    ``out[j]`` estimates ``P(value == j)``; ``n_bins`` defaults to the
    sample maximum plus one (no truncation).

    When ``n_bins`` cuts off observations, the lost tail mass is never
    dropped silently -- heavy-tailed waiting-time distributions live in
    exactly that tail.  ``tail`` selects what happens:

    * ``"raise"`` (default): :class:`SimulationError` naming the
      truncated count;
    * ``"renormalize"``: return the conditional pmf given
      ``value < n_bins`` (sums to 1; the truncation is explicit in the
      conditioning);
    * ``"keep"``: normalise by the *full* sample size, so the returned
      pmf sums to less than 1 and the deficit is the tail mass.
    """
    if tail not in ("raise", "renormalize", "keep"):
        raise SimulationError(
            f"tail must be 'raise', 'renormalize' or 'keep', got {tail!r}"
        )
    values = np.asarray(values)
    if values.size == 0:
        raise SimulationError("cannot histogram an empty sample")
    ints = np.rint(values).astype(np.int64)
    if (ints < 0).any():
        raise SimulationError("waiting times cannot be negative")
    counts = np.bincount(ints, minlength=n_bins or 0)
    if n_bins is not None and counts.size > n_bins:
        dropped = int(counts[n_bins:].sum())
        counts = counts[:n_bins]
        if dropped:
            if tail == "raise":
                raise SimulationError(
                    f"{dropped} of {values.size} observations fall at or above "
                    f"n_bins={n_bins}; pass tail='renormalize' or tail='keep' "
                    "to make the truncated tail mass explicit"
                )
            if tail == "renormalize":
                kept = values.size - dropped
                if kept == 0:
                    raise SimulationError(
                        f"every observation falls at or above n_bins={n_bins}; "
                        "nothing to renormalize"
                    )
                return counts / kept
    return counts / values.size
