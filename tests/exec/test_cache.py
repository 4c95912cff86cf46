"""Content-addressed cache: round trips, invalidation, robustness."""

import json

import numpy as np
import pytest

import repro.exec.cache as cache_mod
from repro.exec.cache import ResultCache, payload_to_result, result_to_payload
from repro.exec.spec import ExperimentSpec
from repro.simulation.network import NetworkConfig, NetworkSimulator


def make_spec(p=0.5, seed=7, n_cycles=800):
    return ExperimentSpec(
        config=NetworkConfig(
            k=2, n_stages=3, p=p, topology="random", width=16, seed=seed
        ),
        n_cycles=n_cycles,
    )


@pytest.fixture
def spec():
    return make_spec()


@pytest.fixture
def result(spec):
    return NetworkSimulator(spec.config).run(spec.n_cycles, warmup=spec.warmup)


def assert_results_identical(a, b):
    assert np.array_equal(a.stage_means, b.stage_means)
    assert np.array_equal(a.stage_variances, b.stage_variances)
    assert np.array_equal(a.stage_counts, b.stage_counts)
    assert np.array_equal(a.tracked.complete_rows(), b.tracked.complete_rows())
    assert (a.injected, a.completed, a.dropped) == (b.injected, b.completed, b.dropped)


class TestPayloadRoundTrip:
    def test_bit_exact(self, spec, result):
        rebuilt = payload_to_result(result_to_payload(result), spec.config)
        assert_results_identical(result, rebuilt)

    def test_tracked_statistics_survive(self, spec, result):
        rebuilt = payload_to_result(result_to_payload(result), spec.config)
        assert np.array_equal(rebuilt.tracked.totals(), result.tracked.totals())
        assert np.array_equal(
            rebuilt.tracked.stage_correlations(), result.tracked.stage_correlations()
        )


class TestHitMiss:
    def test_get_put_get(self, tmp_path, spec, result):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get(spec) is None
        cache.put(spec, result)
        hit = cache.get(spec)
        assert hit is not None
        assert_results_identical(result, hit)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_spec_change_is_miss(self, tmp_path, spec, result):
        cache = ResultCache(tmp_path / "cache")
        cache.put(spec, result)
        assert cache.get(make_spec(p=0.6)) is None
        assert cache.get(make_spec(seed=8)) is None
        assert cache.get(make_spec(n_cycles=900)) is None
        assert cache.get(spec) is not None

    def test_schema_bump_invalidates(self, tmp_path, spec, result, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        cache.put(spec, result)
        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA_VERSION", cache_mod.CACHE_SCHEMA_VERSION + 1)
        assert cache.get(spec) is None  # old entry lives under the old v{N}/
        cache.put(spec, result)
        assert cache.get(spec) is not None
        assert len(cache.entries()) == 2  # both versions on disk, disjoint

    def test_v1_entries_are_not_served(self, tmp_path, spec, result, monkeypatch):
        """v1 entries hold the sample paths of the shared-stream and
        whole-run draws; the block-draw results of v2 never alias them."""
        assert cache_mod.CACHE_SCHEMA_VERSION == 2
        cache = ResultCache(tmp_path / "cache")
        with monkeypatch.context() as patch:
            patch.setattr(cache_mod, "CACHE_SCHEMA_VERSION", 1)
            cache.put(spec, result)
            assert cache.get(spec) is not None
        assert (tmp_path / "cache" / "v1").is_dir()
        assert cache.get(spec) is None

    def test_stale_metadata_version_is_miss(self, tmp_path, spec, result):
        # same directory layout but a doctored in-file version field
        cache = ResultCache(tmp_path / "cache")
        cache.put(spec, result)
        meta_path, _ = cache._entry_paths(spec.digest)
        meta = json.loads(meta_path.read_text())
        meta["schema_version"] = 999
        meta_path.write_text(json.dumps(meta))
        assert cache.get(spec) is None


class TestRobustness:
    def test_corrupt_metadata_is_miss(self, tmp_path, spec, result):
        cache = ResultCache(tmp_path / "cache")
        cache.put(spec, result)
        meta_path, _ = cache._entry_paths(spec.digest)
        meta_path.write_text("{not json")
        assert cache.get(spec) is None

    def test_missing_arrays_is_miss(self, tmp_path, spec, result):
        cache = ResultCache(tmp_path / "cache")
        cache.put(spec, result)
        _, npz_path = cache._entry_paths(spec.digest)
        npz_path.unlink()
        assert cache.get(spec) is None

    def test_get_on_empty_dir_never_raises(self, tmp_path, spec):
        cache = ResultCache(tmp_path / "nonexistent")
        assert cache.get(spec) is None


def stored_rows(cache, spec):
    """The cohort array exactly as the entry's ``.npz`` holds it."""
    _, npz_path = cache._entry_paths(spec.digest)
    with np.load(npz_path) as data:
        return data["tracked_rows"]


def with_rows(result, rows):
    payload = result_to_payload(result)
    payload["tracked_rows"] = np.asarray(rows, dtype=np.float32)
    return payload


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float32), np.asarray(b, dtype=np.float32)
    return a.shape == b.shape and np.array_equal(a.view(np.uint32), b.view(np.uint32))


class TestOnDiskEncoding:
    """The cohort goes to disk in the narrowest exact unsigned dtype, and
    every encoding reads back bit for bit."""

    @pytest.mark.parametrize(
        "maximum, dtype",
        [(255, np.uint8), (256, np.uint16), (65_535, np.uint16), (65_536, np.float32)],
    )
    def test_cohort_maximum_picks_the_dtype(self, tmp_path, spec, result, maximum, dtype):
        rows = result_to_payload(result)["tracked_rows"].copy()
        rows[-1, 0] = maximum
        cache = ResultCache(tmp_path / "cache")
        cache.put(spec, with_rows(result, rows))
        assert stored_rows(cache, spec).dtype == dtype
        hit = cache.get(spec)
        assert same_bits(hit.tracked.waits, rows)
        assert hit.tracked.complete_rows().max() == maximum

    def test_simulated_cohort_is_one_byte_a_wait(self, tmp_path, spec, result):
        cache = ResultCache(tmp_path / "cache")
        cache.put(spec, result)
        stored = stored_rows(cache, spec)
        assert stored.dtype == np.uint8
        assert np.array_equal(stored, result.tracked.complete_rows())
        assert_results_identical(result, cache.get(spec))

    def test_empty_cohort(self, tmp_path, spec, result):
        cache = ResultCache(tmp_path / "cache")
        cache.put(spec, with_rows(result, np.empty((0, 3))))
        assert stored_rows(cache, spec).shape == (0, 3)
        hit = cache.get(spec)
        assert hit.tracked.complete_rows().shape == (0, 3)
        assert np.array_equal(hit.stage_means, result.stage_means)

    def test_streaming_summary_result(self, tmp_path):
        from repro.simulation.streamed import run_streamed

        spec = ExperimentSpec(
            config=NetworkConfig(k=2, n_stages=3, p=0.5, seed=3, track_limit=0),
            n_cycles=600,
            warmup=100,
        )
        [result] = run_streamed([spec.config], spec.n_cycles, warmup=spec.warmup).results
        cache = ResultCache(tmp_path / "cache")
        cache.put(spec, result)
        hit = cache.get(spec)
        assert_results_identical(result, hit)
        assert hit.totals_summary == result.totals_summary
        assert hit.tracked.complete_rows().shape == (0, 3)

    @pytest.mark.parametrize("value", [2.5, -1.0, -0.0, np.nan, np.inf, 1e-3])
    def test_non_integral_payload_stays_float32(self, tmp_path, spec, result, value):
        rows = result_to_payload(result)["tracked_rows"].copy()
        rows[0, 1] = value
        cache = ResultCache(tmp_path / "cache")
        cache.put(spec, with_rows(result, rows))
        stored = stored_rows(cache, spec)
        assert stored.dtype == np.float32
        assert same_bits(stored, rows)
        assert cache.get(spec) is not None

    def test_compressed_float32_entries_are_still_served(self, tmp_path, spec, result):
        """An entry written by the earlier encoding (zlib, float32) under
        the same schema version is a hit, identical to a fresh one."""
        cache = ResultCache(tmp_path / "cache")
        cache.put(spec, result)
        _, npz_path = cache._entry_paths(spec.digest)
        payload = result_to_payload(result)
        np.savez_compressed(
            npz_path,
            stage_means=np.asarray(payload["stage_means"], dtype=np.float64),
            stage_variances=np.asarray(payload["stage_variances"], dtype=np.float64),
            stage_counts=np.asarray(payload["stage_counts"], dtype=np.int64),
            tracked_rows=np.asarray(payload["tracked_rows"], dtype=np.float32),
        )
        assert stored_rows(cache, spec).dtype == np.float32
        assert cache_mod.CACHE_SCHEMA_VERSION == 2
        hit = cache.get(spec)
        assert_results_identical(result, hit)
        assert np.array_equal(hit.tracked.totals(), result.tracked.totals())


class TestStatsAndClear:
    def test_stats(self, tmp_path, spec, result):
        cache = ResultCache(tmp_path / "cache")
        stats = cache.stats()
        assert stats.entries == 0 and stats.total_bytes == 0
        cache.put(spec, result)
        cache.put(make_spec(p=0.3), result)
        cache.get(spec)
        stats = cache.stats()
        assert stats.entries == 2
        assert stats.total_bytes > 0
        assert stats.hits == 1
        assert "2 entries" in stats.to_text()
        assert stats.to_dict()["entries"] == 2

    def test_clear(self, tmp_path, spec, result):
        cache = ResultCache(tmp_path / "cache")
        cache.put(spec, result)
        assert cache.clear() == 1
        assert cache.entries() == []
        assert cache.get(spec) is None
        assert cache.clear() == 0


class TestGetOrBegin:
    """In-process in-flight dedup (the repro.api leader/follower guard)."""

    def test_hit_returns_result_and_no_token(self, tmp_path, spec, result):
        cache = ResultCache(tmp_path / "cache")
        cache.put(spec, result)
        got, token = cache.get_or_begin(spec)
        assert token is None
        assert_results_identical(got, result)

    def test_miss_elects_exactly_one_leader(self, tmp_path, spec):
        cache = ResultCache(tmp_path / "cache")
        _, first = cache.get_or_begin(spec)
        _, second = cache.get_or_begin(spec)
        assert first.leader and not second.leader
        assert first.digest == second.digest == spec.digest
        assert first.event is second.event

    def test_finish_is_idempotent_and_releases_claim(self, tmp_path, spec):
        cache = ResultCache(tmp_path / "cache")
        _, token = cache.get_or_begin(spec)
        assert token.leader
        cache.finish(spec)
        assert token.event.is_set()
        cache.finish(spec)  # no claim left: a no-op
        _, again = cache.get_or_begin(spec)
        assert again.leader  # the digest is claimable again

    def test_two_waiters_one_compute(self, tmp_path, spec, result):
        """Two follower threads block on the leader's event, then both
        read the single computed entry -- the engine runs once."""
        import threading

        cache = ResultCache(tmp_path / "cache")
        computes = []
        outcomes = {}
        ready = threading.Barrier(3)

        def worker(name):
            ready.wait()
            got, token = cache.get_or_begin(spec)
            if got is not None:
                outcomes[name] = ("hit", got)
                return
            if token.leader:
                try:
                    computes.append(name)
                    cache.put(spec, result)
                finally:
                    cache.finish(spec)
                outcomes[name] = ("computed", result)
            else:
                assert token.event.wait(10.0)
                got = cache.get(spec)
                assert got is not None
                outcomes[name] = ("waited", got)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(computes) == 1
        assert len(outcomes) == 3
        kinds = sorted(kind for kind, _ in outcomes.values())
        # one thread computed; the others either waited on the event or
        # raced in after the disk write and saw a plain hit
        assert kinds.count("computed") == 1
        for kind, got in outcomes.values():
            assert_results_identical(got, result)
