"""Parameter-sweep utility tests."""

import pytest

from repro.analysis.sweeps import (
    load_sweep,
    message_size_sweep,
    sweep,
    switch_size_sweep,
)
from repro.errors import AnalysisError

FAST = dict(n_cycles=5_000)


class TestLoadSweep:
    def test_points_align_with_predictions(self):
        rows = load_sweep(loads=(0.3, 0.6), n_stages=5, **FAST)
        assert len(rows) == 2
        for r in rows:
            # first-stage CI brackets the exact prediction
            assert (
                abs(r.first_stage_mean - r.predicted_first_mean)
                < max(3 * r.first_stage_ci, 0.02)
            )
            assert r.agreement() < 0.15
        # waits rise with load
        assert rows[0].total_mean < rows[1].total_mean

    def test_labels(self):
        rows = load_sweep(loads=(0.5,), n_stages=5, **FAST)
        assert rows[0].label == "p=0.5"


class TestOtherSweeps:
    def test_switch_size_sweep_shape(self):
        rows = switch_size_sweep(degrees=(2, 4), **FAST)
        # Eq. (6): waits rise with k at fixed load
        assert rows[0].predicted_first_mean < rows[1].predicted_first_mean
        assert rows[0].first_stage_mean < rows[1].first_stage_mean

    def test_message_size_sweep_linear(self):
        rows = message_size_sweep(sizes=(2, 4), n_cycles=8_000)
        assert rows[1].predicted_limit_mean == pytest.approx(
            2 * rows[0].predicted_limit_mean
        )
        assert rows[1].deep_stage_mean == pytest.approx(
            2 * rows[0].deep_stage_mean, rel=0.2
        )


class TestExecutionRouting:
    def test_sweep_is_cache_served_on_repeat(self, tmp_path):
        from repro.exec import ExecutionContext, ResultCache, use_execution

        cache = ResultCache(tmp_path / "cache")
        with use_execution(ExecutionContext(cache=cache)):
            first = load_sweep(loads=(0.3, 0.5), n_stages=4, n_cycles=3_000)
            assert (cache.hits, cache.misses) == (0, 2)
            second = load_sweep(loads=(0.3, 0.5), n_stages=4, n_cycles=3_000)
        assert (cache.hits, cache.misses) == (2, 2)  # repeat: zero new simulations
        for a, b in zip(first, second, strict=True):
            assert a.total_mean == b.total_mean
            assert a.first_stage_ci == b.first_stage_ci

    def test_load_sweep_fuses_under_vectorized_context(self, tmp_path):
        """With vectorize on, each load point runs as its own stack; the
        results still bracket the predictions and are the serial ones,
        under the serial cache keys."""
        from repro.exec import ExecutionContext, ResultCache, use_execution

        cache = ResultCache(tmp_path / "cache")
        grid = dict(loads=(0.3, 0.5, 0.7), n_stages=4, n_cycles=4_000)
        with use_execution(ExecutionContext(cache=cache, vectorize=True)):
            rows = load_sweep(**grid)
            assert (cache.hits, cache.misses) == (0, 3)
            again = load_sweep(**grid)
            assert (cache.hits, cache.misses) == (3, 3)
        for a, b in zip(rows, again, strict=True):
            assert a.first_stage_mean == b.first_stage_mean
        for r in rows:
            assert (
                abs(r.first_stage_mean - r.predicted_first_mean)
                < max(3 * r.first_stage_ci, 0.02)
            )
        # one digest family: the same grid run serially is served from
        # the stacked entries
        with use_execution(ExecutionContext(cache=cache)):
            serial = load_sweep(**grid)
        assert (cache.hits, cache.misses) == (6, 3)
        assert [r.first_stage_mean for r in serial] == [r.first_stage_mean for r in rows]

    def test_first_stage_ci_brackets_cohort_mean(self):
        # the CI is batch means over the tracked cohort's first-stage
        # column, so it must bracket that cohort's own mean
        rows = load_sweep(loads=(0.5,), n_stages=4, **FAST)
        assert rows[0].first_stage_ci > 0


class TestValidation:
    def test_misaligned_inputs(self):
        with pytest.raises(AnalysisError):
            sweep([], ["x"], [])

    def test_too_few_tracked_messages(self):
        from repro.core.later_stages import LaterStageModel
        from repro.simulation.network import NetworkConfig

        cfg = NetworkConfig(
            k=2, n_stages=3, p=0.01, topology="random", width=16, seed=1,
            track_limit=5,
        )
        with pytest.raises(AnalysisError):
            sweep([cfg], ["tiny"], [LaterStageModel(k=2, p=0.01)], n_cycles=2_000)
