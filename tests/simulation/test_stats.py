"""Output-statistics estimator tests."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.simulation.stats import (
    BatchedTrackedMessages,
    QuantileSketch,
    StageAccumulator,
    StreamingTotals,
    TotalsSummary,
    TrackedMessages,
    assign_track_ids,
    batch_means_ci,
    histogram_pmf,
)


class TestStageAccumulator:
    def test_streaming_moments(self):
        acc = StageAccumulator(2)
        rng = np.random.default_rng(0)
        data0 = rng.exponential(2.0, size=5000)
        data1 = rng.exponential(5.0, size=5000)
        for i in range(0, 5000, 100):
            acc.add(np.zeros(100, dtype=int), data0[i : i + 100])
            acc.add(np.ones(100, dtype=int), data1[i : i + 100])
        assert acc.means() == pytest.approx([data0.mean(), data1.mean()])
        assert acc.variances() == pytest.approx(
            [data0.var(ddof=1), data1.var(ddof=1)], rel=1e-9
        )

    def test_empty_stage_is_nan(self):
        acc = StageAccumulator(2)
        acc.add(np.zeros(3, dtype=int), np.ones(3))
        assert np.isnan(acc.means()[1])
        assert np.isnan(acc.variances()[1])

    def test_no_samples_noop(self):
        acc = StageAccumulator(1)
        acc.add(np.array([], dtype=int), np.array([]))
        assert acc.count[0] == 0

    def test_validation(self):
        with pytest.raises(SimulationError):
            StageAccumulator(0)

    def test_large_offset_regression(self):
        # The naive total_sq - n*mean**2 form returns garbage (often a
        # negative "variance") for a tight sample riding a huge offset;
        # the shifted accumulator must stay exact.
        offset = 1.0e8
        sample = offset + np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        acc = StageAccumulator(1)
        acc.add(np.zeros(sample.size, dtype=int), sample)
        assert acc.means()[0] == pytest.approx(offset + 2.0, abs=1e-6)
        assert acc.variances()[0] == pytest.approx(2.5, rel=1e-12)

    def test_incremental_adds_match_single_add(self):
        # Shift assignment is first-value-wins, so chunked feeding must
        # reproduce the one-shot sums bit for bit (integer-valued data).
        rng = np.random.default_rng(7)
        waits = rng.integers(0, 50, size=1000).astype(float) + 1000.0
        stages = rng.integers(0, 3, size=1000)
        one = StageAccumulator(3)
        one.add(stages, waits)
        many = StageAccumulator(3)
        for i in range(0, 1000, 37):
            many.add(stages[i : i + 37], waits[i : i + 37])
        assert np.array_equal(one.total, many.total)
        assert np.array_equal(one.total_sq, many.total_sq)
        assert np.array_equal(one.shift, many.shift)
        assert np.array_equal(one.means(), many.means())
        assert np.array_equal(one.variances(), many.variances())

    def test_snapshot_returns_raw_moments(self):
        # Metrics samplers difference cumulative snapshots, so snapshot()
        # must keep exposing the un-shifted running sums.
        acc = StageAccumulator(1)
        sample = np.array([10.0, 12.0, 14.0])
        acc.add(np.zeros(3, dtype=int), sample)
        count, total, total_sq = acc.snapshot()
        assert count[0] == 3
        assert total[0] == sample.sum()
        assert total_sq[0] == (sample * sample).sum()


def take(tracker, n, cycle=0):
    """Slots for ``n`` messages injected at ``cycle`` (one replica)."""
    return tracker.assign(np.zeros(n, dtype=np.int64), np.full(n, cycle, dtype=np.int64))


def per_cycle_rows(counts, limit):
    """The rows a tracker handing out slots a cycle at a time ends with."""
    rows, stop = min(limit, TrackedMessages.INITIAL_ROWS), 0
    for count in counts:
        stop = min(stop + count, limit)
        if stop > rows:
            rows = min(limit, max(stop, 2 * rows))
    return rows


class TestTrackedMessages:
    def test_allocation_caps_at_limit(self):
        t = TrackedMessages(limit=3, n_stages=2)
        ids = take(t, 5)
        assert ids.tolist() == [0, 1, 2, -1, -1]
        assert take(t, 2, cycle=1).tolist() == [-1, -1]
        assert t.allocated == 3

    @pytest.mark.parametrize("limit", [700, 5_000, 200_000])
    def test_growth_follows_cycles_not_windows(self, limit):
        """However the cycles are grouped into windows, the matrix ends at
        the size a cycle-at-a-time tracker reaches -- including a cycle
        larger than twice the matrix."""
        rng = np.random.default_rng(limit)
        counts = np.concatenate(
            [rng.integers(0, 60, size=20), [4_000], rng.integers(0, 60, size=300)]
        )
        cycles = np.repeat(np.arange(counts.size), counts)
        cuts = np.sort(rng.choice(np.arange(1, counts.size), size=12, replace=False))
        t = TrackedMessages(limit=limit, n_stages=1)
        ids = []
        for lo, hi in zip([0, *cuts], [*cuts, counts.size], strict=True):
            window = cycles[(cycles >= lo) & (cycles < hi)]
            ids.append(t.assign(np.zeros(window.size, dtype=np.int64), window))
        ids = np.concatenate(ids)
        n = min(int(counts.sum()), limit)
        assert ids[:n].tolist() == list(range(n))
        assert (ids[n:] == -1).all()
        assert t.allocated == n
        assert t.waits.shape == (per_cycle_rows(counts, limit), 1)

    def test_complete_rows_filter(self):
        t = TrackedMessages(limit=4, n_stages=2)
        take(t, 4)
        t.record(np.array([0, 1]), np.array([0, 0]), np.array([1.0, 2.0]))
        t.record(np.array([0]), np.array([1]), np.array([3.0]))
        rows = t.complete_rows()
        assert rows.shape == (1, 2)
        assert rows[0].tolist() == [1.0, 3.0]
        assert t.replica_tracker(0).complete_rows().tolist() == [[1.0, 3.0]]

    def test_totals(self):
        t = TrackedMessages(limit=2, n_stages=3)
        take(t, 1)
        for s, w in enumerate([1.0, 0.0, 2.5]):
            t.record(np.array([0]), np.array([s]), np.array([w]))
        assert t.totals().tolist() == [3.5]

    def test_untracked_records_ignored(self):
        t = TrackedMessages(limit=2, n_stages=1)
        t.record(np.array([-1]), np.array([0]), np.array([9.0]))
        assert t.complete_rows().shape[0] == 0

    def test_correlations_need_samples(self):
        t = TrackedMessages(limit=2, n_stages=2)
        with pytest.raises(SimulationError):
            t.stage_correlations()

    def test_correlations_of_independent_streams(self):
        rng = np.random.default_rng(1)
        t = TrackedMessages(limit=5000, n_stages=2)
        ids = take(t, 5000)
        for s in range(2):
            t.record(ids, np.full(5000, s), rng.normal(size=5000))
        corr = t.stage_correlations()
        assert corr[0, 0] == pytest.approx(1.0)
        assert abs(corr[0, 1]) < 0.05


class TestBatchMeans:
    def test_iid_coverage(self):
        rng = np.random.default_rng(10)
        hits = 0
        for _ in range(40):
            sample = rng.normal(3.0, 1.0, size=2000)
            ci = batch_means_ci(sample, n_batches=20)
            hits += ci.low <= 3.0 <= ci.high
        assert hits >= 30  # ~95% nominal

    def test_validation(self):
        with pytest.raises(SimulationError):
            batch_means_ci(np.ones(10), n_batches=1)
        with pytest.raises(SimulationError):
            batch_means_ci(np.ones(10), n_batches=20)

    def test_interval_endpoints(self):
        ci = batch_means_ci(np.arange(100, dtype=float), n_batches=10)
        assert ci.low < ci.mean < ci.high


class TestHistogram:
    def test_normalised(self):
        pmf = histogram_pmf(np.array([0, 0, 1, 2]))
        assert pmf.tolist() == [0.5, 0.25, 0.25]

    def test_n_bins_pads(self):
        pmf = histogram_pmf(np.array([0]), n_bins=4)
        assert len(pmf) == 4
        assert pmf.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_truncation_raises_by_default(self):
        with pytest.raises(SimulationError, match="1 of 2 observations"):
            histogram_pmf(np.array([0, 3]), n_bins=3)

    def test_truncation_renormalize_is_conditional_pmf(self):
        pmf = histogram_pmf(np.array([0, 0, 1, 5]), n_bins=3, tail="renormalize")
        assert pmf.tolist() == [2 / 3, 1 / 3, 0.0]
        assert pmf.sum() == pytest.approx(1.0)

    def test_truncation_keep_exposes_tail_deficit(self):
        pmf = histogram_pmf(np.array([0, 3]), n_bins=3, tail="keep")
        assert pmf.tolist() == [0.5, 0.0, 0.0]
        assert 1.0 - pmf.sum() == pytest.approx(0.5)  # the tail mass

    def test_no_truncation_all_modes_agree(self):
        for tail in ("raise", "renormalize", "keep"):
            pmf = histogram_pmf(np.array([0, 0, 1, 2]), n_bins=3, tail=tail)
            assert pmf.tolist() == [0.5, 0.25, 0.25]

    def test_validation(self):
        with pytest.raises(SimulationError):
            histogram_pmf(np.array([]))
        with pytest.raises(SimulationError):
            histogram_pmf(np.array([-1.0]))
        with pytest.raises(SimulationError):
            histogram_pmf(np.array([1.0]), tail="truncate")
        with pytest.raises(SimulationError, match="nothing to renormalize"):
            histogram_pmf(np.array([5, 6]), n_bins=2, tail="renormalize")


class TestBatchedAllocateValidation:
    def test_sorted_replicas_allocate_like_serial(self):
        t = BatchedTrackedMessages(n_replicas=2, limit=2, n_stages=1)
        ids = t.assign(np.array([0, 0, 0, 1]), np.zeros(4, dtype=np.int64))
        assert ids.tolist() == [0, 1, -1, 2]


class TestAssignTrackIds:
    def test_interleaved_replicas_number_sequentially(self):
        taken = np.zeros(2, dtype=np.int64)
        ids = assign_track_ids(np.array([1, 0, 0, 1, 0]), taken, 2)
        assert ids.tolist() == [2, 0, 1, 3, -1]
        assert taken.tolist() == [2, 2]

    def test_continues_from_taken(self):
        tracker = BatchedTrackedMessages(n_replicas=2, limit=3, n_stages=1)
        first = tracker.assign(np.array([0, 1, 0]), np.zeros(3, dtype=np.int64))
        second = tracker.assign(np.array([1, 0, 0]), np.ones(3, dtype=np.int64))
        assert first.tolist() == [0, 3, 1]
        assert second.tolist() == [4, 2, -1]


class TestTotalsSummary:
    def test_matches_numpy_moments(self):
        values = np.array([3.0, 7.0, 7.0, 11.0, 30.0])
        s = TotalsSummary.from_values(values)
        assert s.count == 5
        assert s.mean == pytest.approx(values.mean())
        assert s.variance == pytest.approx(values.var(ddof=1))
        assert s.minimum == 3.0 and s.maximum == 30.0

    def test_empty(self):
        s = TotalsSummary.from_values(np.array([]))
        assert s.count == 0
        assert np.isnan(s.mean) and np.isnan(s.variance)


class TestQuantileSketch:
    def test_exact_on_small_samples(self):
        values = np.arange(100, dtype=float)
        sk = QuantileSketch.from_values(values, n_markers=129)
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert sk.quantile(q) == pytest.approx(np.quantile(values, q), abs=1.0)

    def test_merge_within_grid_bound(self):
        rng = np.random.default_rng(3)
        a = rng.exponential(4.0, size=4000)
        b = rng.exponential(4.0, size=4000) + 2.0
        both = np.concatenate([a, b])
        merged = QuantileSketch.merge(
            [QuantileSketch.from_values(a), QuantileSketch.from_values(b)]
        )
        assert merged.count == both.size
        for q in (0.1, 0.5, 0.9, 0.99):
            exact = np.quantile(both, q)
            # bounded by the grid resolution: compare against the exact
            # quantiles one grid step away
            lo = np.quantile(both, max(0.0, q - 1 / 64))
            hi = np.quantile(both, min(1.0, q + 1 / 64))
            assert lo - 1e-9 <= merged.quantile(q) <= hi + 1e-9, q
        assert merged.quantile(0.0) == pytest.approx(both.min())
        assert merged.quantile(1.0) == pytest.approx(both.max())

    def test_pmf_overlay_close_to_exact_histogram(self):
        rng = np.random.default_rng(4)
        values = np.rint(rng.gamma(4.0, 3.0, size=20000))
        sk = QuantileSketch.from_values(values, n_markers=257)
        approx = sk.pmf(30)
        exact = histogram_pmf(values, n_bins=30, tail="keep")
        assert np.abs(approx - exact).max() < 0.02

    def test_determinism(self):
        values = np.random.default_rng(5).exponential(1.0, 1000)
        a = QuantileSketch.from_values(values)
        b = QuantileSketch.from_values(values.copy())
        assert np.array_equal(a.knots, b.knots)

    def test_validation(self):
        with pytest.raises(SimulationError):
            QuantileSketch.from_values(np.array([]))
        with pytest.raises(SimulationError):
            QuantileSketch.from_values(np.array([1.0]), n_markers=2)
        sk = QuantileSketch.from_values(np.array([1.0, 2.0]))
        with pytest.raises(SimulationError):
            sk.quantile(1.5)


class TestStreamingTotals:
    def _random_case(self, seed, n_replicas=8, per=200):
        rng = np.random.default_rng(seed)
        replicas = np.repeat(np.arange(n_replicas), per)
        totals = np.rint(rng.gamma(5.0, 6.0, size=replicas.size)) + 100.0
        return totals, replicas

    def test_monolithic_moments_match_numpy(self):
        totals, replicas = self._random_case(0)
        st = StreamingTotals.from_totals(totals, replicas, 8)
        assert st.count == totals.size
        assert st.mean == pytest.approx(totals.mean())
        assert st.variance == pytest.approx(totals.var(ddof=1))
        assert st.minimum == totals.min() and st.maximum == totals.max()

    def test_sharded_moments_bit_identical(self):
        totals, replicas = self._random_case(1)
        mono = StreamingTotals.from_totals(totals, replicas, 8)
        for split in (1, 2, 3, 5, 8):
            parts = []
            bounds = np.linspace(0, 8, split + 1).astype(int)
            for lo, hi in zip(bounds[:-1], bounds[1:], strict=True):
                mask = (replicas >= lo) & (replicas < hi)
                parts.append(
                    StreamingTotals.from_totals(
                        totals[mask], replicas[mask] - lo, hi - lo
                    )
                )
            merged = StreamingTotals.concat(parts)
            assert merged.mean == mono.mean  # bit-identical, not approx
            assert merged.variance == mono.variance
            assert np.array_equal(merged.counts, mono.counts)
            assert np.array_equal(merged.replica_means(), mono.replica_means())
            # exact top-k tail: identical as a sorted vector
            assert np.array_equal(merged.tail, mono.tail)
            # sketch: approximate but within the documented bound -- one
            # grid step in probability plus one unit of interpolation
            # smoothing on integer-valued data
            for q in (0.25, 0.5, 0.9):
                lo_q = np.quantile(totals, max(0.0, q - 1 / 64))
                hi_q = np.quantile(totals, min(1.0, q + 1 / 64))
                assert lo_q - 1.0 <= merged.quantile(q) <= hi_q + 1.0

    def test_replica_summary_matches_direct(self):
        totals, replicas = self._random_case(2)
        st = StreamingTotals.from_totals(totals, replicas, 8)
        direct = TotalsSummary.from_values(totals[replicas == 3])
        via = st.replica_summary(3)
        assert via == direct

    def test_empty_replicas_are_nan(self):
        st = StreamingTotals.from_totals(
            np.array([5.0]), np.array([0]), n_replicas=3
        )
        means = st.replica_means()
        assert means[0] == 5.0
        assert np.isnan(means[1]) and np.isnan(means[2])
        assert st.replica_summary(1).count == 0

    def test_tail_reservoir_is_exact_topk(self):
        totals, replicas = self._random_case(3)
        st = StreamingTotals.from_totals(totals, replicas, 8, tail_k=10)
        assert np.array_equal(st.tail, np.sort(totals)[::-1][:10])
