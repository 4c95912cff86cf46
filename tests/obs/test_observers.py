"""Observer protocol tests: registration, window events, profiling."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.obs.base import EngineObserver, StageEvents, WindowEvents
from repro.simulation import stagewise
from repro.simulation.network import NetworkConfig, NetworkSimulator


class CountingObserver(EngineObserver):
    """Counts its attachments and the windows and messages it is shown."""

    def __init__(self):
        self.attached = None
        self.detached = None
        self.windows = []
        self.injects = 0
        self.services = 0

    def on_attach(self, engine):
        self.attached = engine

    def on_detach(self, engine):
        self.detached = engine

    def on_window(self, window):
        self.windows.append((window.start, window.end))
        self.injects += window.stages[0].injections.cycle.size
        self.services += sum(stage.cycle.size for stage in window.stages)


class DuckObserver:
    """Never subclassed the base: the protocol is three methods."""

    def __init__(self):
        self.windows = 0

    def on_attach(self, engine):
        pass

    def on_detach(self, engine):
        pass

    def on_window(self, window):
        self.windows += 1


def small_sim(**kwargs):
    return NetworkSimulator(NetworkConfig(k=2, n_stages=3, p=0.4, seed=5, **kwargs))


class TestObserverSet:
    """The engine's observers: a plain list, in attachment order."""

    def test_overridden_callbacks_dispatched(self, monkeypatch):
        monkeypatch.setattr(stagewise, "WINDOW_MESSAGES", 50)
        sim = small_sim()
        obs = CountingObserver()
        sim.engine.add_observer(obs)
        sim.run(100, warmup=0)
        # one call per window, the windows tiling the run
        assert len(obs.windows) > 1
        assert obs.windows[0][0] == 0 and obs.windows[-1][1] == 100
        assert all(a[1] == b[0] for a, b in zip(obs.windows, obs.windows[1:], strict=False))

    def test_duck_typed_observer_dispatched(self):
        sim = small_sim()
        duck = DuckObserver()
        sim.engine.add_observer(duck)
        sim.run(100, warmup=0)
        assert duck.windows >= 1

    def test_add_is_idempotent(self):
        sim = small_sim()
        obs = CountingObserver()
        sim.engine.add_observer(obs)
        sim.engine.add_observer(obs)
        assert sim.engine.observers == [obs]
        sim.run(100, warmup=0)
        assert obs.windows == [(0, 100)]

    def test_remove_rebuilds_dispatch(self):
        sim = small_sim()
        obs = CountingObserver()
        sim.engine.add_observer(obs)
        sim.engine.remove_observer(obs)
        assert sim.engine.observers == [] and obs.detached is sim.engine
        sim.engine.remove_observer(obs)  # absent: no-op
        sim.run(100, warmup=0)
        assert obs.windows == []


class TestEngineRegistry:
    def test_multiple_observers_all_notified(self):
        sim = small_sim()
        a, b = CountingObserver(), DuckObserver()
        sim.engine.add_observer(a)
        sim.engine.add_observer(b)
        sim.run(100, warmup=0)
        assert a.windows and b.windows == len(a.windows)
        assert a.injects == sim.engine.injected and a.services > 0

    def test_on_attach_receives_engine(self):
        sim = small_sim()
        obs = CountingObserver()
        sim.engine.add_observer(obs)
        assert obs.attached is sim.engine

    def test_remove_observer_stops_notifications(self):
        sim = small_sim()
        obs = CountingObserver()
        sim.engine.add_observer(obs)
        sim.run(50, warmup=0)
        seen = len(obs.windows)
        sim.engine.remove_observer(obs)
        sim.engine.run(50, warmup=0)
        assert len(obs.windows) == seen

    def test_window_events_describe_the_window(self):
        """Each stage's starts are committed in the window, sorted by
        (cycle, port), with waits that match the statistics; stage 0
        carries the injections and only stage 0 does."""
        seen = []

        class Keep(EngineObserver):
            def on_window(self, window):
                seen.append(window)

        sim = small_sim()
        sim.engine.add_observer(Keep())
        sim.run(300, warmup=0)
        [window] = seen
        assert isinstance(window, WindowEvents)
        assert (window.start, window.end, window.measure_from) == (0, 300, 0)
        assert len(window.stages) == 3
        injections = window.stages[0].injections
        assert injections.cycle.size == sim.engine.injected
        assert np.all(np.diff(injections.cycle) >= 0)
        assert np.all(injections.port < sim.engine.width)
        for s, stage in enumerate(window.stages):
            assert isinstance(stage, StageEvents)
            assert (stage.injections is None) == (s > 0)
            assert np.all((stage.cycle >= 0) & (stage.cycle < 300))
            key = stage.cycle * sim.engine.width * 3 + stage.port
            assert np.all(np.diff(key) > 0)
            assert np.all(stage.port // sim.engine.width == s)
            assert stage.wait.sum() == sim.engine.stats.snapshot()[1][s]
            assert stage.wait.size == sim.engine.stats.count[s]
            assert stage.dropped.size == 0
        assert window.stages[-1].cycle.size == sim.engine.completed

    def test_window_events_carry_drops(self):
        drops = []

        class Keep(EngineObserver):
            def on_window(self, window):
                drops.extend(np.concatenate([s.dropped for s in window.stages]))

        sim = small_sim(buffer_capacity=1, message_size=2)
        sim.engine.add_observer(Keep())
        result = sim.run(400, warmup=0)
        assert result.dropped > 0 and len(drops) == result.dropped


class TestProfiling:
    def test_phase_timers_accumulate(self, monkeypatch):
        monkeypatch.setattr(stagewise, "WINDOW_MESSAGES", 100)
        sim = small_sim()
        timers = sim.engine.enable_profiling()
        sim.run(200, warmup=0)
        assert set(timers.seconds) == {"predraw", "pass"}
        windows = timers.calls["predraw"]
        assert windows > 1 and timers.calls["pass"] == windows
        assert all(v >= 0 for v in timers.seconds.values())
        assert timers.as_dict()["pass"] == {
            "seconds": timers.seconds["pass"], "calls": windows,
        }

    def test_enable_profiling_idempotent(self):
        sim = small_sim()
        t1 = sim.engine.enable_profiling()
        t2 = sim.engine.enable_profiling()
        assert t1 is t2

    def test_metrics_collector_requires_attach(self):
        from repro.obs.metrics import MetricsCollector

        with pytest.raises(SimulationError):
            MetricsCollector().series()
