"""Sharded stacked execution: digests, cache reuse, bit-identity."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.exec import (
    ExperimentSpec,
    ResultCache,
    estimate_replica_bytes,
    plan_shard_size,
    run_many,
    stream_totals,
)
from repro.simulation.network import NetworkConfig, build_engine

N_CYCLES = 300
WARMUP = 40


def make_specs(n=8, *, track_limit=0, **kw):
    base = dict(k=2, n_stages=3, p=0.5)
    base.update(kw)
    return [
        ExperimentSpec(
            config=NetworkConfig(seed=50 + i, track_limit=track_limit, **base),
            n_cycles=N_CYCLES,
            warmup=WARMUP,
            label=f"r{i}",
        )
        for i in range(n)
    ]


def assert_batches_identical(a, b):
    for x, y in zip(a.results(), b.results(), strict=True):
        assert np.array_equal(x.stage_means, y.stage_means)
        assert np.array_equal(x.stage_variances, y.stage_variances)
        assert x.injected == y.injected
        assert x.completed == y.completed
        assert x.totals_summary == y.totals_summary


class TestDigests:
    def test_digest_is_shard_configuration_free(self, tmp_path):
        """A spec carries its serial digest in any shard of any batch,
        so entries a sharded batch writes serve a serial repeat."""
        specs = make_specs(6, track_limit=1000)
        cache = ResultCache(tmp_path / "cache")
        sharded = run_many(specs, shard_mem=200_000, cache=cache).raise_on_failure()
        serial = run_many(specs, cache=cache).raise_on_failure()
        assert [o.spec.digest for o in sharded.outcomes] == [s.digest for s in specs]
        assert serial.n_cached == len(specs)
        assert_batches_identical(sharded, serial)


class TestShardedRunMany:
    def test_bit_identical_across_shard_budgets_and_workers(self, tmp_path):
        specs = make_specs()
        mono = run_many(
            specs, shard_mem=1 << 30
        ).raise_on_failure()
        tiny = run_many(
            specs, shard_mem=200_000, workers=2,
            cache=ResultCache(tmp_path / "c"),
        ).raise_on_failure()
        assert_batches_identical(mono, tiny)

    def test_cache_hits_cross_shard_configurations(self, tmp_path):
        """shard_mem is an execution knob: results cached under one
        budget are served verbatim under any other."""
        cache = ResultCache(tmp_path / "cache")
        specs = make_specs()
        first = run_many(
            specs, shard_mem=1 << 30, cache=cache
        ).raise_on_failure()
        assert first.n_simulated == len(specs)
        second = run_many(
            specs, shard_mem=150_000, workers=2, cache=cache
        ).raise_on_failure()
        assert second.n_cached == len(specs)
        assert_batches_identical(first, second)

    def test_partial_cache_shards_only_pending(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = make_specs()
        run_many(specs[:3], vectorize=True, cache=cache).raise_on_failure()
        batch = run_many(specs, vectorize=True, cache=cache).raise_on_failure()
        assert batch.n_cached == 3
        assert batch.n_simulated == len(specs) - 3
        mono = run_many(specs, vectorize=True).raise_on_failure()
        assert_batches_identical(batch, mono)

    def test_tracked_mode_streams_too(self):
        specs = make_specs(4, track_limit=1000)
        batch = run_many(
            specs, shard_mem=300_000
        ).raise_on_failure()
        result = batch.results()[0]
        assert result.totals_summary is None
        assert result.total_waits().size > 0

    def test_rehydrated_summary_round_trips(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = make_specs(2)
        fresh = run_many(specs, vectorize=True, cache=cache).raise_on_failure()
        hit = cache.get(fresh.outcomes[0].spec)
        assert hit is not None
        assert hit.totals_summary == fresh.results()[0].totals_summary
        assert hit.total_waiting_mean() == fresh.results()[0].total_waiting_mean()

    def test_incompatible_options_refused(self):
        """A shard budget implies the stacked path, which shards specs
        itself and runs no custom task."""
        specs = make_specs(2)
        with pytest.raises(ExecutionError, match="task_fn"):
            run_many(specs, shard_mem=1 << 20, task_fn=lambda s: None)
        with pytest.raises(ExecutionError, match="chunksize"):
            run_many(specs, shard_mem=1 << 20, chunksize=2)


class TestShardPlanning:
    def test_estimate_scales_with_load_and_cycles(self):
        light = NetworkConfig(k=2, n_stages=3, p=0.1)
        heavy = NetworkConfig(k=2, n_stages=3, p=0.9)
        assert estimate_replica_bytes(heavy, 1000) > estimate_replica_bytes(
            light, 1000
        )
        assert estimate_replica_bytes(light, 10_000) > estimate_replica_bytes(
            light, 1000
        )

    @pytest.mark.parametrize("n_cycles", [1_500, 20_000])
    def test_stacked_tracker_fits_the_estimate(self, n_cycles):
        """The tracker matrix of a stacked shard stays inside the
        planner's per-replica budget."""
        configs = [
            NetworkConfig(k=2, n_stages=6, p=0.3, topology="random", width=16, seed=s)
            for s in range(4)
        ]
        warmup = max(500, n_cycles // 10)  # the stacked default
        engine = build_engine(configs, measured_cycles=n_cycles - warmup)
        budget = len(configs) * estimate_replica_bytes(configs[0], n_cycles)
        assert engine.tracker.waits.nbytes <= budget

    def test_plan_respects_budget(self):
        config = NetworkConfig(k=2, n_stages=3, p=0.5)
        per = estimate_replica_bytes(config, N_CYCLES)
        assert plan_shard_size(config, N_CYCLES, 10 * per) == 10
        assert plan_shard_size(config, N_CYCLES, 1) == 1  # floor of one
        with pytest.raises(ExecutionError, match="shard_mem"):
            plan_shard_size(config, N_CYCLES, 0)


class TestStreamTotalsDriver:
    def test_shard_and_worker_invariant(self):
        config = NetworkConfig(k=2, n_stages=3, p=0.5)
        mono = stream_totals(
            config, 40, N_CYCLES, warmup=WARMUP, shard_mem=1 << 30
        )
        sharded = stream_totals(
            config, 40, N_CYCLES, warmup=WARMUP,
            shard_mem=400_000, workers=3,
        )
        assert mono.n_shards == 1 and sharded.n_shards > 1
        assert sharded.totals.count == mono.totals.count
        assert sharded.totals.mean == mono.totals.mean
        assert sharded.totals.variance == mono.totals.variance
        assert np.array_equal(sharded.totals.tail, mono.totals.tail)
        assert sharded.injected == mono.injected
        assert sharded.completed == mono.completed

    def test_matches_run_many_seeding(self):
        """stream_totals(seed=base+i) reproduces explicit-seed specs."""
        config = NetworkConfig(k=2, n_stages=3, p=0.5)
        driver = stream_totals(config, 5, N_CYCLES, warmup=WARMUP, base_seed=50)
        specs = [
            ExperimentSpec(
                config=dataclasses.replace(config, seed=50 + i, track_limit=0),
                n_cycles=N_CYCLES,
                warmup=WARMUP,
            )
            for i in range(5)
        ]
        batch = run_many(specs, vectorize=True).raise_on_failure()
        means = np.array([r.totals_summary.mean for r in batch.results()])
        assert np.array_equal(driver.totals.replica_means(), means)

    def test_progress_and_validation(self):
        config = NetworkConfig(k=2, n_stages=2, p=0.4)
        events = []
        out = stream_totals(
            config, 4, 100, warmup=10, shard_mem=1 << 30,
            progress=events.append,
        )
        assert out.n_shards == 1
        assert [e["event"] for e in events] == ["shard"]
        with pytest.raises(ExecutionError, match="n_replications"):
            stream_totals(config, 0, 100)
        with pytest.raises(ExecutionError, match="workers"):
            stream_totals(config, 4, 100, workers=0)
