"""Streamed engine: shard invariance, summary mode, refusals."""

import numpy as np
import pytest

from repro.errors import ModelError, SimulationError
from repro.simulation.batched import run_stacked
from repro.simulation.network import NetworkConfig, NetworkSimulator
from repro.simulation.stats import StreamingTotals
from repro.simulation.streamed import run_streamed

N_CYCLES = 400
WARMUP = 50


def configs(n=6, *, track_limit=200_000, **kw):
    base = dict(k=2, n_stages=3, p=0.6)
    base.update(kw)
    return [
        NetworkConfig(seed=100 + i, track_limit=track_limit, **base)
        for i in range(n)
    ]


def assert_results_identical(a, b):
    assert np.array_equal(a.stage_means, b.stage_means)
    assert np.array_equal(a.stage_variances, b.stage_variances)
    assert np.array_equal(a.stage_counts, b.stage_counts)
    assert np.array_equal(a.tracked.complete_rows(), b.tracked.complete_rows())
    assert a.injected == b.injected
    assert a.completed == b.completed
    assert a.max_occupancy == b.max_occupancy


class TestShardInvariance:
    """A replica's result is independent of its shard-mates."""

    @pytest.mark.parametrize("cuts", [[1, 5], [2, 4], [3], [1, 2, 3, 4, 5]])
    def test_tracked_results_bit_identical(self, cuts):
        cfgs = configs()
        mono = run_streamed(cfgs, N_CYCLES, warmup=WARMUP).results
        bounds = [0, *cuts, len(cfgs)]
        sharded = [
            r
            for lo, hi in zip(bounds[:-1], bounds[1:], strict=True)
            for r in run_streamed(cfgs[lo:hi], N_CYCLES, warmup=WARMUP).results
        ]
        for a, b in zip(mono, sharded, strict=True):
            assert_results_identical(a, b)

    def test_streaming_totals_merge_bit_identical(self):
        cfgs = configs(track_limit=0)
        mono = run_streamed(cfgs, N_CYCLES, warmup=WARMUP).totals
        parts = [
            run_streamed(cfgs[lo:hi], N_CYCLES, warmup=WARMUP).totals
            for lo, hi in [(0, 1), (1, 4), (4, 6)]
        ]
        merged = StreamingTotals.concat(parts)
        assert merged.count == mono.count
        assert merged.mean == mono.mean
        assert merged.variance == mono.variance
        assert np.array_equal(merged.tail, mono.tail)
        assert np.array_equal(merged.replica_means(), mono.replica_means())

    def test_singleton_equals_batch_member(self):
        cfgs = configs(3)
        batch = run_streamed(cfgs, N_CYCLES, warmup=WARMUP).results
        solo = run_streamed([cfgs[1]], N_CYCLES, warmup=WARMUP).results[0]
        assert_results_identical(batch[1], solo)


class TestStreamingSummary:
    """track_limit=0 keeps exact moments without per-message storage."""

    def test_matches_tracked_totals_exactly(self):
        tracked = run_streamed(configs(), N_CYCLES, warmup=WARMUP).results
        stream = run_streamed(configs(track_limit=0), N_CYCLES, warmup=WARMUP)
        exact = np.concatenate([r.total_waits() for r in tracked])
        assert stream.totals.count == exact.size
        assert np.isclose(stream.totals.mean, exact.mean(), rtol=1e-14)
        assert np.isclose(stream.totals.variance, exact.var(ddof=1), rtol=1e-12)
        # per-stage statistics are mode-independent
        for a, b in zip(tracked, stream.results, strict=True):
            assert np.array_equal(a.stage_means, b.stage_means)
            assert np.array_equal(a.stage_variances, b.stage_variances)

    def test_quantile_sketch_brackets_exact(self):
        tracked = run_streamed(configs(), N_CYCLES, warmup=WARMUP).results
        stream = run_streamed(configs(track_limit=0), N_CYCLES, warmup=WARMUP)
        exact = np.sort(np.concatenate([r.total_waits() for r in tracked]))
        grid = stream.totals.sketch.probs
        for q in (0.5, 0.9, 0.99):
            i = np.searchsorted(grid, q)
            lo = np.quantile(exact, grid[max(i - 1, 0)])
            hi = np.quantile(exact, grid[min(i, grid.size - 1)])
            # one grid step in probability plus one unit of interpolation
            # smoothing on integer-valued waits
            assert lo - 1.0 <= stream.totals.quantile(q) <= hi + 1.0

    def test_result_summary_fallbacks(self):
        stream = run_streamed(configs(track_limit=0), N_CYCLES, warmup=WARMUP)
        r = stream.results[0]
        assert r.totals_summary is not None
        assert r.total_waiting_mean() == stream.totals.replica_summary(0).mean
        assert r.total_waiting_variance() == stream.totals.replica_summary(0).variance
        with pytest.raises(SimulationError, match="streaming summary"):
            r.total_waits()

    def test_tracked_mode_has_no_summary(self):
        r = run_streamed(configs(1), N_CYCLES, warmup=WARMUP).results[0]
        assert r.totals_summary is None
        assert r.total_waits().size > 0


class TestRefusals:
    def test_serial_simulator_refuses_streaming_mode(self):
        with pytest.raises(SimulationError, match="streamed engine"):
            NetworkSimulator(NetworkConfig(k=2, n_stages=2, p=0.4, track_limit=0))

    def test_stacked_engine_refuses_streaming_mode(self):
        cfgs = [NetworkConfig(k=2, n_stages=2, p=0.4, seed=1, track_limit=0)]
        with pytest.raises(SimulationError, match="streamed engine"):
            run_stacked(cfgs, n_cycles=100, warmup=10)

    def test_negative_track_limit_refused(self):
        with pytest.raises(ModelError, match="track_limit"):
            NetworkConfig(k=2, n_stages=2, p=0.4, track_limit=-1)

    def test_empty_batch_refused(self):
        with pytest.raises(SimulationError, match="at least one"):
            run_streamed([], 100)

    def test_auto_warmup_refused(self):
        with pytest.raises(SimulationError, match="explicit warm-up"):
            run_streamed(configs(1), 100, warmup="auto")

    def test_finite_buffers_refused(self):
        cfgs = [NetworkConfig(k=2, n_stages=2, p=0.4, buffer_capacity=4, seed=1)]
        with pytest.raises(SimulationError, match="infinite buffers"):
            run_streamed(cfgs, 100)

    def test_shape_mismatch_refused(self):
        cfgs = [
            NetworkConfig(k=2, n_stages=2, p=0.4, seed=1),
            NetworkConfig(k=2, n_stages=3, p=0.4, seed=2),
        ]
        with pytest.raises(SimulationError, match="one scenario"):
            run_streamed(cfgs, 100)

    def test_heterogeneous_loads_refused(self):
        """A stack holds seeds of one scenario: a load sweep streams as
        one stack per load, never as one mixed stack."""
        cfgs = [
            NetworkConfig(k=2, n_stages=3, p=p, seed=s)
            for s, p in enumerate([0.2, 0.5, 0.8], start=40)
        ]
        with pytest.raises(SimulationError, match="one scenario: p="):
            run_streamed(cfgs, N_CYCLES, warmup=WARMUP)


class TestDefaults:
    def test_warmup_default_matches_stacked(self):
        batch = run_streamed(configs(1), 6000)
        assert batch.results[0].warmup == 600
        batch = run_streamed(configs(1), 1000)
        assert batch.results[0].warmup == 500
