"""Vectorized (stacked) execution through run_many.

Contract under test:

* grouping is by shape (identical specs up to the config seed and the
  stackable traffic parameters), with finite-buffer specs left on the
  serial path;
* every spec keeps its serial digest and result, so cache entries cross
  the serial and vectorized paths in both directions;
* ``vectorize=True`` composes with workers and the cache: pool runs are
  bit-identical to in-process runs, repeats are fully cache-served, and
  only uncached specs are simulated;
* a failing shard fails atomically without sinking the batch.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.exec.cache import ResultCache
from repro.exec.runner import run_many
from repro.exec.spec import ExperimentSpec, group_by_shape
from repro.simulation.network import NetworkConfig
from repro.simulation.replication import replicate


def base_config(**kwargs):
    defaults = dict(k=2, n_stages=3, p=0.5, topology="random", width=16)
    defaults.update(kwargs)
    return NetworkConfig(**defaults)


def spec_batch(n=4, n_cycles=1_200, **kwargs):
    return [
        ExperimentSpec(
            config=base_config(seed=100 + i, **kwargs),
            n_cycles=n_cycles,
            label=f"r{i}",
        )
        for i in range(n)
    ]


class TestGrouping:
    def test_load_sweep_specs_stack_heterogeneously(self):
        specs = [
            ExperimentSpec(config=base_config(p=p, seed=7 + i), n_cycles=1_200)
            for i, p in enumerate([0.2, 0.5, 0.8])
        ]
        assert group_by_shape(specs) == [[0, 1, 2]]

    def test_finite_buffer_groups_stay_serial(self, monkeypatch):
        """Finite-buffer specs never reach a stacked engine."""
        import repro.simulation.streamed as streamed_mod

        def boom(*args, **kwargs):
            raise RuntimeError("stacked engine used")

        monkeypatch.setattr(streamed_mod, "run_streamed", boom)
        specs = [
            ExperimentSpec(
                config=NetworkConfig(
                    k=2, n_stages=3, p=0.5, buffer_capacity=4, seed=s
                ),
                n_cycles=1_200,
            )
            for s in (1, 2)
        ]
        batch = run_many(specs, vectorize=True, retries=0)
        assert batch.n_simulated == 2

    def test_grouping_ignores_labels(self):
        specs = spec_batch(2)
        relabelled = [replace(specs[0], label="x"), replace(specs[1], label="y")]
        assert group_by_shape(specs) == group_by_shape(relabelled)


class TestRunMany:
    def test_vectorized_matches_itself_across_workers(self):
        specs = spec_batch(5)
        inproc = run_many(specs, vectorize=True).raise_on_failure()
        pooled = run_many(specs, vectorize=True, workers=2).raise_on_failure()
        for a, b in zip(inproc.outcomes, pooled.outcomes, strict=True):
            assert np.array_equal(a.result.stage_means, b.result.stage_means)
            assert np.array_equal(a.result.stage_counts, b.result.stage_counts)
            assert a.spec.digest == b.spec.digest

    def test_cache_round_trip_per_spec(self, tmp_path):
        specs = spec_batch(4)
        cache = ResultCache(tmp_path / "cache")
        first = run_many(specs, vectorize=True, cache=cache).raise_on_failure()
        assert first.n_simulated == 4
        again = run_many(specs, vectorize=True, cache=cache).raise_on_failure()
        assert again.n_cached == 4
        for a, b in zip(first.outcomes, again.outcomes, strict=True):
            assert np.array_equal(a.result.stage_means, b.result.stage_means)
            assert np.array_equal(
                a.result.tracked.complete_rows(), b.result.tracked.complete_rows()
            )

    def test_serial_batch_served_from_vectorized_entries(self, tmp_path):
        specs = spec_batch(3)
        cache = ResultCache(tmp_path / "cache")
        vec = run_many(specs, vectorize=True, cache=cache).raise_on_failure()
        serial = run_many(specs, cache=cache).raise_on_failure()
        # one digest per spec, whichever path ran it
        assert serial.n_simulated == 0 and serial.n_cached == 3
        for a, b in zip(vec.outcomes, serial.outcomes, strict=True):
            assert a.spec.digest == b.spec.digest
            assert np.array_equal(a.result.stage_means, b.result.stage_means)

    def test_partial_cache_reruns_only_missing_members(self, tmp_path):
        specs = spec_batch(4)
        cache = ResultCache(tmp_path / "cache")
        full = run_many(specs, vectorize=True, cache=cache).raise_on_failure()
        # evict one member: it alone is simulated again, and reproduces
        for path in cache._entry_paths(specs[2].digest):
            path.unlink()
        partial = run_many(specs, vectorize=True, cache=cache).raise_on_failure()
        assert partial.n_cached == 3 and partial.n_simulated == 1
        for a, b in zip(full.outcomes, partial.outcomes, strict=True):
            assert np.array_equal(a.result.stage_means, b.result.stage_means)

    def test_single_replica_batch_matches_serial_digest_and_result(self):
        """A 1-spec group shares the serial digest and result."""
        specs = spec_batch(1)
        vec = run_many(specs, vectorize=True).raise_on_failure()
        ser = run_many(specs).raise_on_failure()
        assert vec.outcomes[0].spec.digest == ser.outcomes[0].spec.digest
        assert np.array_equal(
            vec.outcomes[0].result.stage_means, ser.outcomes[0].result.stage_means
        )

    def test_atomic_group_failure(self, monkeypatch):
        import repro.simulation.streamed as streamed_mod

        real = streamed_mod.run_streamed

        def boom(configs, *args, **kwargs):
            if len(configs) > 1:
                raise RuntimeError("injected batched failure")
            return real(configs, *args, **kwargs)

        monkeypatch.setattr(streamed_mod, "run_streamed", boom)
        specs = [
            *spec_batch(3),
            ExperimentSpec(config=base_config(n_stages=4, seed=9), n_cycles=1_200),
        ]
        batch = run_many(specs, vectorize=True, retries=1)
        assert batch.n_failed == 3
        assert batch.n_simulated == 1  # the singleton's own shard ran
        for o in batch.failures():
            assert o.attempts == 2
            assert "injected batched failure" in o.error

    def test_vectorize_rejects_task_fn_and_chunksize(self):
        specs = spec_batch(2)
        with pytest.raises(ExecutionError, match="task_fn"):
            run_many(specs, vectorize=True, task_fn=lambda s: None)
        with pytest.raises(ExecutionError, match="chunksize"):
            run_many(specs, vectorize=True, chunksize=2)


class TestStatisticalEquivalence:
    def test_stacked_heterogeneous_sweep_agrees_with_serial_runs(self):
        """A vectorized loads x seeds sweep (one stacked group) and the
        same specs run serially are the same sample paths, bit for bit."""
        loads = [0.3, 0.6]
        seeds = range(300, 308)
        specs = [
            ExperimentSpec(
                config=base_config(p=p, seed=s, n_stages=4),
                n_cycles=3_000,
                label=f"p={p}/s={s}",
            )
            for p in loads
            for s in seeds
        ]
        # sanity: the whole sweep really is one stacked group
        assert group_by_shape(specs) == [list(range(len(specs)))]

        vec = run_many(specs, vectorize=True).raise_on_failure()
        ser = run_many(specs).raise_on_failure()
        for a, b in zip(vec.results(), ser.results(), strict=True):
            assert np.array_equal(a.stage_means, b.stage_means)
            assert np.array_equal(a.stage_variances, b.stage_variances)
            assert np.array_equal(a.tracked.complete_rows(), b.tracked.complete_rows())


class TestReplicate:
    def test_replicate_vectorized_returns_per_replica_results(self):
        config = base_config()
        results = replicate(config, 6, 1_500, vectorize=True)
        assert len(results) == 6
        assert [r.config.seed for r in results] == [1000 + i for i in range(6)]
        means = {float(r.stage_means[0]) for r in results}
        assert len(means) == 6

    def test_replicate_vectorized_is_deterministic(self):
        config = base_config()
        a = replicate(config, 4, 1_500, vectorize=True)
        b = replicate(config, 4, 1_500, vectorize=True)
        for ra, rb in zip(a, b, strict=True):
            assert np.array_equal(ra.stage_means, rb.stage_means)
