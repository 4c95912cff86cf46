"""Differential tests: both serial engine paths vs the naive reference model.

``ClockedEngine.run`` evaluates a fresh, uninstrumented run stage by
stage (:mod:`repro.simulation.stagewise`) and everything else cycle by
cycle.  Every case here runs both paths -- an attached observer that
listens to nothing forces the cycle loop -- on *identical pre-generated
traffic*, demands that they agree bit for bit on every statistic and on
the end state, and demands identical per-message waiting times at every
stage against the reference model.  Scenarios are hand-picked
(multi-packet, store-and-forward, finite buffers, window edges) and
hypothesis-generated.
"""

from typing import List
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.base import EngineObserver
from repro.simulation import stagewise
from repro.simulation.engine import ClockedEngine
from repro.simulation.network import NetworkConfig, NetworkSimulator
from repro.simulation.topology import OmegaTopology, RandomRoutingTopology
from repro.simulation.traffic import CycleArrivals

from tests.simulation.reference_model import ReferenceNetwork

#: window sizes (messages) that close windows every cycle, at every
#: message, and every few cycles
WINDOWS = [0, 1, 5, 40]


class ScriptedTraffic:
    """Replays a pre-generated traffic script into the engine."""

    def __init__(self, width: int, script: List[tuple]) -> None:
        self.width = width
        self._script = list(script)
        self._cursor = 0
        self.injected = 0

    def generate(self) -> CycleArrivals:
        if self._cursor >= len(self._script):
            empty = np.empty(0, dtype=np.int64)
            return CycleArrivals(empty, empty, empty)
        sources, dests, services, _ids = self._script[self._cursor]
        self._cursor += 1
        self.injected += len(sources)
        return CycleArrivals(
            np.asarray(sources, dtype=np.int64),
            np.asarray(dests, dtype=np.int64),
            np.asarray(services, dtype=np.int64),
        )


def make_script(rng, width, dest_space, n_cycles, p, max_service=1, bulk=1):
    """Random traffic script: per-cycle (sources, dests, services, ids)."""
    script = []
    next_id = 0
    for _ in range(n_cycles):
        active = np.flatnonzero(rng.random(width) < p)
        dests = rng.integers(0, dest_space, size=active.size)
        if bulk > 1:
            active = np.repeat(active, bulk)
            dests = np.repeat(dests, bulk)
        services = rng.integers(1, max_service + 1, size=active.size)
        ids = np.arange(next_id, next_id + active.size)
        next_id += active.size
        script.append((active, dests, services, ids))
    return script


def make_engine(topology, script, *, cycle_loop, transfer="cut_through",
                buffer_capacity=None, track_limit=None):
    """A serial engine replaying ``script``; ``cycle_loop`` forces the loop."""
    total_msgs = sum(len(s[0]) for s in script)
    engine = ClockedEngine(
        topology,
        ScriptedTraffic(topology.width, script),
        transfer=transfer,
        buffer_capacity=buffer_capacity,
        track_limit=track_limit or max(total_msgs, 1),
    )
    if cycle_loop:
        engine.add_observer(EngineObserver())  # listens to nothing
    return engine


def queue_contents(queues):
    """Every queue's messages in FIFO order, per field."""
    out = {}
    for name, arr in queues._fields.items():
        out[name] = [
            arr[q, (queues._head[q] + np.arange(queues.counts[q])) % queues.capacity]
            for q in range(queues.n_queues)
        ]
    return out


def assert_same_state(a, b):
    """Two serial engines agree on every statistic and on their end state."""
    for name in ("count", "shift", "total", "total_sq"):
        assert np.array_equal(getattr(a.stats, name), getattr(b.stats, name)), name
    assert np.array_equal(a.tracker.waits, b.tracker.waits)
    assert a.tracker.allocated == b.tracker.allocated
    assert (a.now, a.injected, a.completed, a.in_flight) == (
        b.now, b.injected, b.completed, b.in_flight
    )
    assert a.queues.dropped == b.queues.dropped
    assert a.queues.max_occupancy == b.queues.max_occupancy
    assert np.array_equal(a.queues.high_water(), b.queues.high_water())
    assert np.array_equal(a.queues.counts, b.queues.counts)
    assert np.array_equal(a.busy, b.busy)
    contents_a, contents_b = queue_contents(a.queues), queue_contents(b.queues)
    for name in contents_a:
        for qa, qb in zip(contents_a[name], contents_b[name], strict=True):
            assert np.array_equal(qa, qb), name


def run_both(topology, script, transfer="cut_through", buffer_capacity=None):
    """Both serial paths, checked against each other; returns the
    stage-wise engine (the cycle loop for finite buffers) and the
    reference model."""
    n_cycles = len(script)
    engines = [
        make_engine(topology, script, cycle_loop=loop, transfer=transfer,
                    buffer_capacity=buffer_capacity)
        for loop in (False, True)
    ]
    for engine in engines:
        engine.run(n_cycles + 200, warmup=0)  # drain
    assert_same_state(*engines)

    ref = ReferenceNetwork(
        topology, transfer=transfer, buffer_capacity=buffer_capacity
    )
    ref.run_with_traffic(script)
    for _ in range(200):
        ref.step_service()
    return engines[0], ref


def assert_identical(engine, ref, topology):
    waits = engine.tracker.waits[: engine.tracker.allocated]
    for (msg_id, stage), ref_wait in ref.waits.items():
        got = waits[msg_id, stage]
        assert got == ref_wait, (
            f"message {msg_id} stage {stage}: engine={got} reference={ref_wait}"
        )
    # both saw every service event (unless drops occurred)
    engine_events = int((waits >= 0).sum())
    assert engine_events == len(ref.waits)
    assert engine.completed >= len(ref.completed)  # engine counts non-tracked too


class TestHandPicked:
    def test_unit_service_banyan(self):
        topo = OmegaTopology(2, 3)
        script = make_script(np.random.default_rng(0), 8, 8, 60, p=0.6)
        engine, ref = run_both(topo, script)
        assert_identical(engine, ref, topo)

    def test_multi_packet_cut_through(self):
        topo = OmegaTopology(2, 3)
        script = [
            (np.array([0, 3]), np.array([5, 5]), np.array([4, 4]), np.array([0, 1])),
            (np.array([1]), np.array([5]), np.array([2]), np.array([2])),
            *((np.array([], dtype=int),) * 4 for _ in range(20)),
        ]
        engine, ref = run_both(topo, script)
        assert_identical(engine, ref, topo)

    def test_store_and_forward(self):
        topo = OmegaTopology(2, 2)
        script = make_script(np.random.default_rng(2), 4, 4, 50, p=0.3, max_service=3)
        engine, ref = run_both(topo, script, transfer="store_forward")
        assert_identical(engine, ref, topo)

    def test_finite_buffers_drop_identically(self):
        topo = OmegaTopology(2, 2)
        script = make_script(np.random.default_rng(3), 4, 4, 80, p=0.9, max_service=2)
        engine, ref = run_both(topo, script, buffer_capacity=2)
        assert engine.queues.dropped == ref.dropped
        assert_identical(engine, ref, topo)

    def test_width_decoupled_topology(self):
        topo = RandomRoutingTopology(2, 5, width=8)
        script = make_script(
            np.random.default_rng(4), 8, topo.destination_space, 60, p=0.5
        )
        engine, ref = run_both(topo, script)
        assert_identical(engine, ref, topo)

    def test_bulk_arrivals(self):
        topo = OmegaTopology(2, 3)
        script = make_script(np.random.default_rng(5), 8, 8, 40, p=0.3, bulk=2)
        engine, ref = run_both(topo, script)
        assert_identical(engine, ref, topo)


class TestHypothesisDifferential:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.sampled_from([2, 3]),
        n_stages=st.integers(min_value=1, max_value=3),
        p=st.floats(min_value=0.1, max_value=0.9),
        max_service=st.integers(min_value=1, max_value=4),
        transfer=st.sampled_from(["cut_through", "store_forward"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_scenarios(self, seed, k, n_stages, p, max_service, transfer):
        topo = OmegaTopology(k, n_stages)
        script = make_script(
            np.random.default_rng(seed), topo.width, topo.width, 30,
            p=p, max_service=max_service,
        )
        engine, ref = run_both(topo, script, transfer=transfer)
        assert_identical(engine, ref, topo)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        capacity=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_finite_buffer_scenarios(self, seed, capacity):
        topo = OmegaTopology(2, 2)
        script = make_script(
            np.random.default_rng(seed), 4, 4, 40, p=0.8, max_service=2
        )
        engine, ref = run_both(topo, script, buffer_capacity=capacity)
        assert engine.queues.dropped == ref.dropped
        assert_identical(engine, ref, topo)


def idle(n):
    """``n`` cycles without arrivals."""
    empty = np.array([], dtype=int)
    return [(empty, empty, empty, empty) for _ in range(n)]


@pytest.mark.parametrize("window", WINDOWS)
class TestWindowEdges:
    """The stage-wise pass with windows closed far more often than usual."""

    @pytest.fixture(autouse=True)
    def _window(self, window, monkeypatch):
        monkeypatch.setattr(stagewise, "WINDOW_MESSAGES", window)

    def test_random_traffic(self, window):
        topo = OmegaTopology(2, 3)
        script = make_script(np.random.default_rng(10), 8, 8, 60, p=0.6, max_service=2)
        engine, ref = run_both(topo, script)
        assert_identical(engine, ref, topo)

    def test_service_spans_window_edge(self, window):
        # a 6-cycle message, then one more per cycle for the same
        # destination: at every stage the window edges fall inside services
        # and the later messages queue behind the long one where they meet
        topo = OmegaTopology(2, 3)
        script = [
            (np.array([0]), np.array([5]), np.array([6]), np.array([0])),
            *[(np.array([s]), np.array([5]), np.array([2]), np.array([s]))
              for s in (1, 2, 3)],
            *idle(10),
        ]
        engine, ref = run_both(topo, script)
        assert_identical(engine, ref, topo)

    @pytest.mark.parametrize("transfer", ["cut_through", "store_forward"])
    def test_backlog_carried_across_windows(self, window, transfer):
        # overloaded (rho ~ 2.7): queues only grow while traffic lasts
        topo = OmegaTopology(2, 2)
        script = make_script(np.random.default_rng(11), 4, 4, 40, p=0.9, max_service=5)
        engine, ref = run_both(topo, script, transfer=transfer)
        assert_identical(engine, ref, topo)

    def test_idle_cycles_between_bursts(self, window):
        topo = OmegaTopology(2, 3)
        rng = np.random.default_rng(12)
        script = (
            idle(3)
            + make_script(rng, 8, 8, 5, p=0.9, max_service=3)
            + idle(20)
            + make_script(rng, 8, 8, 5, p=0.9, max_service=3)
        )
        # make_script restarts ids per call; renumber them globally
        ids = iter(range(10_000))
        script = [(s, d, m, np.array([next(ids) for _ in s])) for s, d, m, _ in script]
        engine, ref = run_both(topo, script)
        assert_identical(engine, ref, topo)

    @pytest.mark.parametrize("warmup_at", ["zero", "last"])
    def test_warmup_extremes(self, window, warmup_at):
        topo = OmegaTopology(2, 3)
        script = make_script(np.random.default_rng(13), 8, 8, 50, p=0.7, max_service=2)
        n_cycles = 50
        warmup = 0 if warmup_at == "zero" else n_cycles - 1
        engines = [make_engine(topo, script, cycle_loop=loop) for loop in (False, True)]
        for engine in engines:
            engine.run(n_cycles, warmup=warmup)
        assert_same_state(*engines)

    def test_traffic_runs_out(self, window):
        # the script ends after 8 cycles; the run goes on for 300 more
        topo = RandomRoutingTopology(2, 4, width=8)
        script = make_script(np.random.default_rng(14), 8, topo.destination_space, 8, p=0.8)
        engine, ref = run_both(topo, script)
        assert engine.in_flight == 0
        assert_identical(engine, ref, topo)


class TestHypothesisWindows:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.sampled_from([2, 3]),
        n_stages=st.integers(min_value=1, max_value=3),
        p=st.floats(min_value=0.1, max_value=0.9),
        max_service=st.integers(min_value=1, max_value=4),
        transfer=st.sampled_from(["cut_through", "store_forward"]),
        window=st.sampled_from(WINDOWS),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_scenarios_small_windows(
        self, seed, k, n_stages, p, max_service, transfer, window
    ):
        topo = OmegaTopology(k, n_stages)
        script = make_script(
            np.random.default_rng(seed), topo.width, topo.width, 30,
            p=p, max_service=max_service,
        )
        with patch.object(stagewise, "WINDOW_MESSAGES", window):
            engine, ref = run_both(topo, script, transfer=transfer)
        assert_identical(engine, ref, topo)


class TestStateAndResume:
    """A stage-wise run leaves the cycle loop's exact end state."""

    @pytest.mark.parametrize("window", [1, 40, stagewise.WINDOW_MESSAGES])
    @pytest.mark.parametrize("transfer", ["cut_through", "store_forward"])
    def test_pass_then_loop_equals_loop_throughout(self, window, transfer, monkeypatch):
        monkeypatch.setattr(stagewise, "WINDOW_MESSAGES", window)
        topo = OmegaTopology(2, 3)
        script = make_script(np.random.default_rng(20), 8, 8, 120, p=0.8, max_service=3)
        staged, looped = (
            make_engine(topo, script, cycle_loop=loop, transfer=transfer)
            for loop in (False, True)
        )
        staged.run(70, warmup=10)  # fresh: stage by stage
        looped.run(70, warmup=10)
        assert staged.in_flight > 0 and staged.busy.any()  # mid-flight end state
        assert_same_state(staged, looped)
        staged.run(90, warmup=5)   # not fresh: cycle by cycle, from the restored state
        looped.run(90, warmup=5)
        assert_same_state(staged, looped)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(k=2, n_stages=3, p=0.6),
            dict(k=2, n_stages=2, p=0.4, bulk_size=3),
            dict(k=2, n_stages=2, p=0.4, sizes=(1, 3), probabilities=(0.5, 0.5)),
            dict(k=2, n_stages=3, p=0.5, q=0.3),
            dict(k=2, n_stages=2, p=0.3, message_size=2, transfer="store_forward"),
            dict(k=2, n_stages=4, p=0.7, topology="butterfly"),
            dict(k=3, n_stages=3, p=0.5, topology="random", width=9),
        ],
        ids=["unit", "bulk", "multisize", "favourite", "store_forward",
             "butterfly", "random"],
    )
    def test_network_results_bit_identical(self, kw, monkeypatch):
        monkeypatch.setattr(stagewise, "WINDOW_MESSAGES", 300)
        cfg = NetworkConfig(seed=31, **kw)
        staged = NetworkSimulator(cfg)
        looped = NetworkSimulator(cfg)
        looped.engine.add_observer(EngineObserver())
        a, b = staged.run(1500, warmup=200), looped.run(1500, warmup=200)
        assert_same_state(staged.engine, looped.engine)
        for name in ("stage_means", "stage_variances", "stage_counts"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert np.array_equal(a.tracked.waits, b.tracked.waits)
        for name in ("n_cycles", "warmup", "injected", "completed", "dropped",
                     "max_occupancy", "backend", "timings", "totals_summary"):
            assert getattr(a, name) == getattr(b, name), name
