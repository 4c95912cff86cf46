"""Independent-replication runner tests."""

import pytest

from repro.errors import SimulationError
from repro.simulation.network import NetworkConfig
from repro.simulation.replication import (
    ReplicatedStatistic,
    replicate,
    replicate_until,
    replicated_statistic,
)


def small_config():
    return NetworkConfig(k=2, n_stages=3, p=0.5, topology="random", width=64)


class TestReplicate:
    def test_runs_are_independent(self):
        results = replicate(small_config(), n_replications=3, n_cycles=2_000)
        means = [r.stage_means[0] for r in results]
        assert len(set(means)) == 3  # different seeds, different paths

    def test_seed_in_config_is_overridden(self):
        cfg = NetworkConfig(k=2, n_stages=3, p=0.5, topology="random", width=64, seed=7)
        a, b = replicate(cfg, n_replications=2, n_cycles=1_500)
        assert a.stage_means[0] != b.stage_means[0]

    def test_validation(self):
        with pytest.raises(SimulationError):
            replicate(small_config(), n_replications=1, n_cycles=1_000)
        with pytest.raises(SimulationError):
            replicate(small_config(), n_replications=2, n_cycles=1_000, warmup="auto")

    def test_parallel_matches_serial(self):
        import numpy as np

        serial = replicate(small_config(), n_replications=3, n_cycles=1_500, workers=1)
        parallel = replicate(small_config(), n_replications=3, n_cycles=1_500, workers=2)
        for a, b in zip(serial, parallel, strict=True):
            assert np.array_equal(a.stage_means, b.stage_means)
            assert np.array_equal(
                a.tracked.complete_rows(), b.tracked.complete_rows()
            )

    def test_uses_ambient_execution_cache(self, tmp_path):
        from repro.exec import ExecutionContext, ResultCache, use_execution

        cache = ResultCache(tmp_path / "cache")
        with use_execution(ExecutionContext(cache=cache)):
            replicate(small_config(), n_replications=2, n_cycles=1_200)
            assert len(cache.entries()) == 2
            replicate(small_config(), n_replications=2, n_cycles=1_200)
        assert cache.hits == 2  # second batch fully cache-served


class TestReplicatedStatistic:
    def test_interval_covers_exact_value(self):
        results = replicate(small_config(), n_replications=5, n_cycles=4_000)
        stat = replicated_statistic(results, lambda r: r.stage_means[0])
        assert stat.n == 5
        # w1 = 0.25 exactly; 5 replications at 4k cycles should cover it
        assert stat.covers(0.25)
        assert stat.half_width < 0.05

    def test_interval_arithmetic(self):
        stat = ReplicatedStatistic(values=(1.0, 2.0, 3.0), confidence=0.95)
        low, high = stat.interval()
        assert low < stat.mean < high
        assert stat.mean == 2.0
        assert "+/-" in str(stat)

    def test_validation(self):
        results = replicate(small_config(), n_replications=2, n_cycles=1_000)
        with pytest.raises(SimulationError):
            replicated_statistic(results[:1], lambda r: 0.0)
        with pytest.raises(SimulationError):
            replicated_statistic(results, lambda r: 0.0, confidence=1.5)

    def test_single_replication_half_width_raises(self):
        # df = 0 used to surface as a silent NaN from t.ppf
        stat = ReplicatedStatistic(values=(1.0,), confidence=0.95)
        assert stat.mean == 1.0  # the point estimate is still usable
        with pytest.raises(SimulationError, match="at least 2 replications"):
            stat.half_width
        with pytest.raises(SimulationError):
            stat.interval()


def stage1_mean(r):
    return float(r.stage_means[0])


class TestReplicateUntil:
    R_MAX = 64
    N_CYCLES = 3_000

    def test_early_stop_beats_fixed_budget(self):
        """The tentpole contract: a low-variance scenario converges on
        the pilot and simulates far fewer cycles than a fixed-r_max
        study would have."""
        out = replicate_until(
            small_config(),
            stage1_mean,
            target_half_width=0.05,
            n_cycles=self.N_CYCLES,
            r_max=self.R_MAX,
        )
        assert out.converged
        assert out.statistic.half_width <= 0.05
        assert out.engine_cycles < self.R_MAX * self.N_CYCLES
        assert out.n_replications < self.R_MAX
        assert "converged" in str(out)

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    def test_interval_covers_theorem_1(self, p):
        """Early stopping must not sacrifice correctness: at every load
        the adaptive t-interval still covers the Paper Eq. (6) mean."""
        from fractions import Fraction

        from repro.core.formulas import uniform_unit_mean

        # width 128: wide enough that the finite-width bias relative
        # to the asymptotic theorem is inside the interval (the same
        # width the analysis validators use)
        cfg = NetworkConfig(
            k=2, n_stages=3, p=p, topology="random", width=128
        )
        out = replicate_until(
            cfg,
            stage1_mean,
            target_half_width=0.06,
            n_cycles=4_000,
            r_max=32,
        )
        target = float(uniform_unit_mean(2, Fraction(p).limit_denominator(10)))
        assert out.statistic.covers(target), (
            f"p={p}: interval {out.statistic.interval()} misses {target}"
        )

    def test_r_max_exhaustion_reports_not_converged(self):
        out = replicate_until(
            small_config(),
            stage1_mean,
            target_half_width=1e-9,  # unreachable
            n_cycles=400,
            warmup=50,
            r0=2,
            r_max=8,
        )
        assert not out.converged
        assert out.n_replications == 8
        assert out.rounds >= 2
        assert out.statistic.n == 8
        assert "NOT converged" in str(out)

    def test_growth_reuses_cached_rounds(self, tmp_path):
        """A grown round re-submits earlier replicas; with the ambient
        cache they are served, not re-simulated, so engine_cycles counts
        each replica exactly once."""
        from repro.exec import ExecutionContext, ResultCache, use_execution

        cache = ResultCache(tmp_path / "cache")
        with use_execution(ExecutionContext(cache=cache)):
            out = replicate_until(
                small_config(),
                stage1_mean,
                target_half_width=1e-9,
                n_cycles=400,
                warmup=50,
                r0=2,
                r_max=8,
            )
        assert out.rounds >= 2
        assert cache.hits >= 2  # pilot replicas reused by round 2
        assert out.engine_cycles == out.n_replications * 400

    def test_streamed_execution_path(self):
        """An ambient ``vectorize`` routes rounds through stacked shards,
        which re-derive earlier replicas bit-identically without a cache."""
        from repro.exec import use_execution

        cfg = NetworkConfig(k=2, n_stages=3, p=0.5)
        with use_execution(vectorize=True):
            out = replicate_until(
                cfg,
                stage1_mean,
                target_half_width=1e-9,
                n_cycles=300,
                warmup=40,
                r0=2,
                r_max=8,
            )
            fixed = replicate_until(
                cfg,
                stage1_mean,
                target_half_width=1e-9,
                n_cycles=300,
                warmup=40,
                r0=8,
                r_max=8,
            )
        # growth rounds extend, never perturb: the final 8-replica
        # statistic is identical whether grown 2->4->8 or run at 8
        assert out.statistic.values == fixed.statistic.values

    def test_validation(self):
        cfg = small_config()
        with pytest.raises(SimulationError, match="target_half_width"):
            replicate_until(cfg, stage1_mean, 0.0, 100)
        with pytest.raises(SimulationError, match="r0"):
            replicate_until(cfg, stage1_mean, 0.1, 100, r0=1)
        with pytest.raises(SimulationError, match="r_max"):
            replicate_until(cfg, stage1_mean, 0.1, 100, r0=8, r_max=4)
        with pytest.raises(SimulationError, match="confidence"):
            replicate_until(cfg, stage1_mean, 0.1, 100, confidence=2.0)


class TestAmbientContext:
    """Both replication helpers honour every field of the ambient context."""

    @pytest.fixture
    def run_many_calls(self, monkeypatch):
        import repro.exec.context as context_mod
        import repro.exec.runner as runner_mod

        calls = []
        real = runner_mod.run_many

        def spy(specs, **kwargs):
            calls.append(kwargs)
            return real(specs, **kwargs)

        monkeypatch.setattr(context_mod, "run_many", spy)
        monkeypatch.setattr(runner_mod, "run_many", spy)
        return calls

    def test_vectorize_and_retries_reach_run_many(self, run_many_calls):
        from repro.exec import use_execution

        cfg = NetworkConfig(k=2, n_stages=3, p=0.5)
        with use_execution(vectorize=True, retries=2):
            replicate(cfg, n_replications=2, n_cycles=300, warmup=40)
            replicate_until(
                cfg, stage1_mean, 1e-9, 300, warmup=40, r0=2, r_max=2
            )
        assert len(run_many_calls) == 2
        for kwargs in run_many_calls:
            assert kwargs["vectorize"] is True
            assert kwargs["retries"] == 2

    def test_explicit_serial_beats_ambient_vectorize(self, run_many_calls):
        from repro.exec import use_execution

        cfg = NetworkConfig(k=2, n_stages=3, p=0.5)
        with use_execution(vectorize=True):
            replicate(cfg, n_replications=2, n_cycles=300, warmup=40, vectorize=False)
        (kwargs,) = run_many_calls
        assert kwargs["vectorize"] is False
