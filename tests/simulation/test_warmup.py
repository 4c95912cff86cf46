"""Warm-up detection (MSER-5) tests."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.obs.metrics import MetricsCollector
from repro.simulation.network import NetworkConfig, NetworkSimulator
from repro.simulation.warmup import moving_average, mser5_truncation


class TestMSER5:
    def test_detects_obvious_transient(self):
        rng = np.random.default_rng(0)
        transient = np.linspace(10, 1, 200)  # decaying ramp
        steady = rng.normal(1.0, 0.2, size=2000)
        series = np.concatenate([transient, steady])
        cut = mser5_truncation(series)
        assert 100 <= cut <= 400

    def test_stationary_series_barely_truncates(self):
        rng = np.random.default_rng(1)
        series = rng.normal(5.0, 1.0, size=2000)
        cut = mser5_truncation(series)
        assert cut < 400  # no systematic transient to remove

    def test_cap_fraction_guard(self):
        # a series that 'improves' to the very end: the rule must not
        # truncate beyond the cap
        series = np.linspace(10, 0, 1000)
        cut = mser5_truncation(series, cap_fraction=0.5)
        assert cut <= 500

    def test_nan_tolerance(self):
        rng = np.random.default_rng(2)
        series = rng.normal(2.0, 0.5, size=1000)
        series[::7] = np.nan  # idle cycles
        cut = mser5_truncation(series)
        assert 0 <= cut < 500

    def test_validation(self):
        with pytest.raises(SimulationError):
            mser5_truncation(np.ones(10))
        with pytest.raises(SimulationError):
            mser5_truncation(np.ones(100), cap_fraction=0.0)
        with pytest.raises(SimulationError):
            mser5_truncation(np.full(100, np.nan))


class TestMovingAverage:
    def test_constant_series(self):
        out = moving_average(np.full(50, 3.0), window=5)
        assert out == pytest.approx(np.full(50, 3.0))

    def test_nan_gaps_interpolated(self):
        series = np.array([1.0, np.nan, 1.0, 1.0, np.nan, 1.0] * 5)
        out = moving_average(series, window=3)
        assert np.nanmax(np.abs(out - 1.0)) < 1e-12

    def test_validation(self):
        with pytest.raises(SimulationError):
            moving_average(np.ones(5), window=0)
        with pytest.raises(SimulationError):
            moving_average(np.ones(5), window=6)


class TestAutoWarmupIntegration:
    def test_auto_mode_runs_and_reports(self):
        cfg = NetworkConfig(k=2, n_stages=4, p=0.5, topology="random", width=64, seed=5)
        result = NetworkSimulator(cfg).run(6_000, warmup="auto")
        assert 100 <= result.warmup < 6_000
        # statistics still agree with the exact first stage
        assert result.stage_means[0] == pytest.approx(0.25, rel=0.1)

    def test_engine_series_recording(self):
        """The pilot's per-cycle series: a stride-1 collector's running
        last-stage wait moments, one sample per cycle."""
        cfg = NetworkConfig(k=2, n_stages=3, p=0.5, topology="random", width=32, seed=6)
        sim = NetworkSimulator(cfg)
        probe = MetricsCollector(stride=1, capacity=500)
        sim.engine.add_observer(probe)
        sim.engine.run(500, warmup=0)
        counts = probe.series()["wait_count"][:, -1]
        assert counts.size == 500
        assert counts[-1] == sim.engine.stats.count[-1] > 0
