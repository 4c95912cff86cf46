"""Message-journey tracing tests."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.obs.base import Injections, StageEvents, WindowEvents
from repro.simulation.network import NetworkConfig, NetworkSimulator
from repro.simulation.trace import MessageTracer


def traced_run(n_cycles=300, **config_kwargs):
    cfg = NetworkConfig(k=2, n_stages=3, p=0.4, seed=11, **config_kwargs)
    sim = NetworkSimulator(cfg)
    tracer = MessageTracer(limit=200)
    sim.engine.add_observer(tracer)
    result = sim.run(n_cycles, warmup=0)
    return sim, tracer, result


class TestTracer:
    def test_journeys_recorded(self):
        sim, tracer, _ = traced_run()
        assert tracer.traced > 0
        j = tracer.journey(0)
        assert j.injected_cycle is not None
        assert j.source is not None

    def test_completed_journeys_cross_all_stages(self):
        sim, tracer, _ = traced_run()
        done = tracer.completed_journeys(n_stages=3)
        assert done
        for j in done[:10]:
            stages = sorted(e.stage for e in j.events)
            assert stages == [0, 1, 2]
            # service starts are causally ordered
            cycles = [e.cycle for e in sorted(j.events, key=lambda e: e.stage)]
            assert all(a < b for a, b in zip(cycles, cycles[1:], strict=False))

    def test_waits_match_statistics_tracker(self):
        sim, tracer, result = traced_run()
        rows = result.tracked.waits
        for j in tracer.completed_journeys(3)[:20]:
            for e in j.events:
                assert rows[j.track_id, e.stage] == e.wait

    def test_total_wait_consistency(self):
        sim, tracer, result = traced_run()
        done = tracer.completed_journeys(3)
        matrix = result.tracked.waits
        # the tracker's totals for the traced subset coincide
        for j in done[:10]:
            assert j.total_wait == sum(e.wait for e in j.events)
            assert j.total_wait == matrix[j.track_id, :3].sum()

    def test_describe_renders(self):
        _, tracer, _ = traced_run()
        text = tracer.journey(0).describe()
        assert "message 0" in text
        assert "stage 1" in text

    def test_slowest_sorted(self):
        _, tracer, _ = traced_run(n_cycles=500)
        slow = tracer.slowest(3)
        waits = [j.total_wait for j in slow]
        assert waits == sorted(waits, reverse=True)

    def test_untraced_message_raises(self):
        _, tracer, _ = traced_run()
        with pytest.raises(SimulationError):
            tracer.journey(10 ** 9)

    def test_limit_validation(self):
        with pytest.raises(SimulationError):
            MessageTracer(limit=0)

    def test_short_circuits_after_all_journeys_complete(self):
        """Regression: tracing must stop once `limit` journeys finish.

        The docstring promises the tracer is cheap to leave attached;
        that only holds if observation short-circuits after the traced
        cohort completes instead of inspecting every later event.
        """
        cfg = NetworkConfig(k=2, n_stages=3, p=0.4, seed=11)
        sim = NetworkSimulator(cfg)
        tracer = MessageTracer(limit=5)
        sim.engine.add_observer(tracer)
        sim.run(400, warmup=0)
        assert tracer.finished
        assert len(tracer.completed_journeys(3)) == 5
        # post-completion events are ignored entirely
        events_before = sum(j.stages_served for j in tracer.slowest(5))
        one = np.array([999]), np.array([0]), np.array([2])
        late = StageEvents(one[0], one[1], one[1], one[1] + 1, one[2], np.empty(0, np.int64))
        first = late._replace(injections=Injections(one[0], one[1], one[1], one[2]))
        tracer.on_window(WindowEvents(999, 1000, 0, (first, late, late)))
        assert tracer.traced == 5
        assert sum(j.stages_served for j in tracer.slowest(5)) == events_before

    def test_not_finished_while_journeys_incomplete(self):
        _, tracer, _ = traced_run(n_cycles=5)
        assert not tracer.finished

    def test_first_stage_wait_zero_when_idle(self):
        """At light load most first-stage waits are zero (idle ports)."""
        _, tracer, _ = traced_run(n_cycles=400)
        first_waits = [
            e.wait
            for j in tracer.completed_journeys(3)
            for e in j.events
            if e.stage == 0
        ]
        assert first_waits.count(0) / len(first_waits) > 0.5
