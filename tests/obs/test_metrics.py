"""MetricsCollector tests: sampling, bounding, schema, non-perturbation."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.obs.manifest import validate_metrics_record
from repro.obs.metrics import METRICS_RECORD_FIELDS, MetricsCollector
from repro.simulation.network import NetworkConfig, NetworkSimulator
from repro.simulation.trace import MessageTracer


def metered_run(n_cycles=400, stride=4, capacity=4096, **config_kwargs):
    cfg = NetworkConfig(k=2, n_stages=3, p=0.4, seed=3, **config_kwargs)
    sim = NetworkSimulator(cfg)
    collector = MetricsCollector(stride=stride, capacity=capacity)
    sim.attach_metrics(collector)
    result = sim.run(n_cycles, warmup=0)
    return sim, collector, result


class TestSampling:
    def test_stride_controls_sample_count(self):
        _, collector, _ = metered_run(n_cycles=400, stride=4)
        # cycles 0, 4, ..., 396
        assert collector.n_samples == 100
        cycles = collector.series()["cycle"]
        assert cycles[0] == 0 and cycles[-1] == 396
        assert np.all(np.diff(cycles) == 4)

    def test_stride_one_samples_every_cycle(self):
        _, collector, _ = metered_run(n_cycles=50, stride=1)
        assert collector.n_samples == 50

    def test_validation(self):
        with pytest.raises(SimulationError):
            MetricsCollector(stride=0)
        with pytest.raises(SimulationError):
            MetricsCollector(capacity=0)


class TestRingBounding:
    def test_memory_bounded_by_capacity(self):
        _, collector, _ = metered_run(n_cycles=400, stride=2, capacity=16)
        assert collector.samples_taken == 200
        assert collector.n_samples == 16
        assert collector.samples_overwritten == 200 - 16

    def test_wraparound_keeps_newest_chronologically(self):
        _, collector, _ = metered_run(n_cycles=400, stride=2, capacity=16)
        cycles = collector.series()["cycle"]
        assert cycles.size == 16
        assert np.all(np.diff(cycles) > 0)
        assert cycles[-1] == 398  # newest survives; oldest evicted

    def test_per_stage_arrays_follow_ring_order(self):
        _, collector, _ = metered_run(n_cycles=400, stride=2, capacity=16)
        s = collector.series()
        # cumulative counters never decrease in chronological order
        assert np.all(np.diff(s["injected"]) >= 0)
        assert np.all(np.diff(s["completed"]) >= 0)
        assert np.all(np.diff(s["wait_count"], axis=0) >= 0)


class TestSeries:
    def test_utilization_in_unit_interval(self):
        _, collector, _ = metered_run()
        util = collector.series()["utilization"]
        assert np.all(util >= 0) and np.all(util <= 1)

    def test_utilization_tracks_offered_load(self):
        # at rho=0.4 with unit service, each stage transmits ~p of cycles
        _, collector, _ = metered_run(n_cycles=2_000)
        util = collector.series()["utilization"].mean(axis=0)
        assert np.allclose(util, 0.4, atol=0.05)

    def test_wait_moments_match_engine_stats(self):
        # stride=1 so the final sample coincides with the final cycle
        sim, collector, result = metered_run(stride=1)
        s = collector.series()
        assert np.array_equal(s["wait_count"][-1], result.stage_counts)
        means = collector.stage_wait_means()
        assert np.allclose(means, result.stage_means)

    def test_summary_digest(self):
        # stride=1 so the final sample coincides with the final cycle
        _, collector, result = metered_run(stride=1)
        summary = collector.summary()
        assert summary["samples"] == collector.n_samples
        assert summary["completed"] == result.completed
        assert len(summary["mean_queue_depth"]) == 3
        assert summary["window_throughput"] > 0

    def test_empty_summary(self):
        collector = MetricsCollector()
        sim = NetworkSimulator(NetworkConfig(k=2, n_stages=3, p=0.4, seed=3))
        sim.attach_metrics(collector)
        assert collector.summary() == {"samples": 0}


class TestAttachMidRun:
    @pytest.mark.parametrize("capacity", [None, 2])
    def test_late_collector_matches_one_attached_from_the_start(self, capacity, monkeypatch):
        """A collector attached after a first run starts from the engine's
        state: queued messages, busy ports, moments and counters."""
        from repro.simulation import stagewise

        monkeypatch.setattr(stagewise, "WINDOW_MESSAGES", 37)
        cfg = NetworkConfig(k=2, n_stages=3, p=0.8, sizes=(1, 3), probabilities=(0.5, 0.5),
                            buffer_capacity=capacity, seed=4)
        early, late = NetworkSimulator(cfg), NetworkSimulator(cfg)
        from_start = MetricsCollector(stride=1, capacity=2000)
        early.attach_metrics(from_start)
        early.run(300, warmup=50)
        late.run(300, warmup=50)
        joined = MetricsCollector(stride=1, capacity=2000)
        late.attach_metrics(joined)
        early.run(400, warmup=20)
        late.run(400, warmup=20)
        a, b = from_start.series(), joined.series()
        after = a["cycle"] >= 300
        for name in a:
            assert np.array_equal(a[name][after], b[name]), name


class TestRecordSchema:
    def test_records_match_documented_schema(self):
        _, collector, _ = metered_run()
        n = 0
        for record in collector.records():
            validate_metrics_record(record, n_stages=3)
            n += 1
        assert n == collector.n_samples

    def test_schema_fields_frozen(self):
        assert set(METRICS_RECORD_FIELDS) == {
            "cycle",
            "queue_depth",
            "busy_ports",
            "utilization",
            "wait_count",
            "wait_sum",
            "wait_sumsq",
            "injected",
            "completed",
            "dropped",
            "in_flight",
        }

    def test_validate_rejects_missing_field(self):
        _, collector, _ = metered_run()
        record = next(collector.records())
        record.pop("cycle")
        with pytest.raises(SimulationError):
            validate_metrics_record(record)

    def test_validate_rejects_wrong_stage_count(self):
        _, collector, _ = metered_run()
        record = next(collector.records())
        with pytest.raises(SimulationError):
            validate_metrics_record(record, n_stages=7)


class TestNonPerturbation:
    """Observers must not change what the simulation computes."""

    def unobserved(self, **config_kwargs):
        cfg = NetworkConfig(k=2, n_stages=3, p=0.4, seed=3, **config_kwargs)
        return NetworkSimulator(cfg).run(400, warmup=0)

    def test_metrics_and_tracer_leave_statistics_identical(self):
        base = self.unobserved()
        cfg = NetworkConfig(k=2, n_stages=3, p=0.4, seed=3)
        sim = NetworkSimulator(cfg)
        sim.attach_metrics(MetricsCollector(stride=4))
        sim.engine.add_observer(MessageTracer(limit=50))
        observed = sim.run(400, warmup=0)
        assert np.array_equal(base.stage_means, observed.stage_means)
        assert np.array_equal(base.stage_variances, observed.stage_variances)
        assert np.array_equal(base.stage_counts, observed.stage_counts)
        assert base.injected == observed.injected
        assert base.completed == observed.completed

    def test_composition_identical_under_finite_buffer_drops(self):
        base = self.unobserved(buffer_capacity=2)
        assert base.dropped > 0  # the scenario genuinely drops
        cfg = NetworkConfig(k=2, n_stages=3, p=0.4, seed=3, buffer_capacity=2)
        sim = NetworkSimulator(cfg)
        sim.attach_metrics(MetricsCollector(stride=4))
        sim.engine.add_observer(MessageTracer(limit=50))
        observed = sim.run(400, warmup=0)
        assert np.array_equal(base.stage_means, observed.stage_means)
        assert base.dropped == observed.dropped
        assert base.completed == observed.completed

    def test_profiling_leaves_statistics_identical(self):
        base = self.unobserved()
        cfg = NetworkConfig(k=2, n_stages=3, p=0.4, seed=3)
        sim = NetworkSimulator(cfg)
        sim.engine.enable_profiling()
        observed = sim.run(400, warmup=0)
        assert np.array_equal(base.stage_means, observed.stage_means)
        assert observed.timings is not None


class TestOccupancyIdentities:
    """Exact occupancy integrals of a drained run, stage by stage.

    A message pushed at cycle ``p`` and started at ``start`` is queued
    at the end of cycles ``p .. start - 1``, and its port is busy for
    ``service`` cycles from ``start``.  Summed over a run that drains:

    * sum_t queue_depth[t, s] = sum of waits + sum of lags, the lag being
      ``arrival - push``: 0 at stage 0 (injected at arrival), 1 after it
      under cut-through and the service time under store-and-forward;
    * sum_t busy_ports[t, s] = sum of the services started at ``s``;
    * the last sample's injected = completed + dropped.

    The right-hand sides come from the statistics and the tracker, not
    from the collector.
    """

    @pytest.mark.parametrize("window", [40, 12_000])
    @pytest.mark.parametrize(
        "transfer, capacity, max_service",
        [
            ("cut_through", None, 1),
            ("cut_through", None, 3),
            ("store_forward", None, 3),
            ("cut_through", 1, 1),
            ("cut_through", 2, 3),
            ("store_forward", 2, 3),
        ],
    )
    def test_little_integrals(self, transfer, capacity, max_service, window, monkeypatch):
        from repro.simulation import stagewise
        from repro.simulation.engine import ClockedEngine
        from repro.simulation.topology import OmegaTopology
        from tests.simulation.test_engine_reference import ScriptedTraffic, make_script

        monkeypatch.setattr(stagewise, "WINDOW_MESSAGES", window)
        topo = OmegaTopology(2, 3)
        script = make_script(
            np.random.default_rng(41), 8, 8, 150, p=0.7, max_service=max_service
        )
        n_cycles = len(script) + 400  # an idle tail: the network drains
        services = np.concatenate([s[2] for s in script])
        engine = ClockedEngine(
            topo, [ScriptedTraffic(8, script)], transfer=transfer,
            buffer_capacity=capacity, track_limit=services.size,
        )
        collector = MetricsCollector(stride=1, capacity=n_cycles)
        engine.add_observer(collector)
        engine.run(n_cycles, warmup=0)
        assert engine.in_flight == 0
        s = collector.series()
        assert s["cycle"].size == n_cycles
        count, total, _ = engine.stats.snapshot()
        started = engine.tracker.waits[: services.size] >= 0  # (message, stage)
        for stage in range(topo.n_stages):
            served = services[started[:, stage]]
            assert served.size == count[stage]
            if stage == 0:
                lag = 0
            elif transfer == "cut_through":
                lag = served.size
            else:
                lag = int(served.sum())
            assert s["queue_depth"][:, stage].sum() == total[stage] + lag
            assert s["busy_ports"][:, stage].sum() == served.sum()
        assert s["injected"][-1] == services.size == engine.injected
        assert s["injected"][-1] == s["completed"][-1] + s["dropped"][-1]
        assert (s["dropped"][-1] > 0) == (capacity is not None)
