"""Differential tests: the engine vs the naive reference model.

``ClockedEngine.run`` evaluates every run stage by stage
(:mod:`repro.simulation.stagewise`).  Every case here drives the engine
and the pure-Python reference model with *identical pre-generated
traffic* and demands identical per-message waiting times at every
stage, identical drops, and -- once the run has stopped -- the same
queue contents, busy ports and occupancy high-water marks, port by
port.  Scenarios are hand-picked (multi-packet, store-and-forward,
finite buffers, window edges, resumed runs) and hypothesis-generated,
for one network and for stacks of replicas that each replay their own
traffic against their own reference model.
"""

from typing import List
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsCollector
from repro.simulation import stagewise
from repro.simulation.engine import ClockedEngine
from repro.simulation.network import NetworkConfig, NetworkSimulator
from repro.simulation.topology import OmegaTopology, RandomRoutingTopology
from repro.simulation.trace import MessageTracer
from repro.simulation.traffic import BatchArrivals

from tests.simulation.reference_model import ReferenceNetwork

#: window sizes (messages) that close windows every cycle, at every
#: message, and every few cycles
WINDOWS = [0, 1, 5, 40]


class ScriptedTraffic:
    """Replays a pre-generated traffic script into the engine."""

    n_replicas = 1

    def __init__(self, width: int, script: List[tuple]) -> None:
        self.width = width
        self._script = list(script)
        self._cursor = 0
        self.injected = 0

    def generate_batch(self) -> BatchArrivals:
        if self._cursor >= len(self._script):
            empty = np.empty(0, dtype=np.int64)
            return BatchArrivals(empty, empty, empty, empty)
        sources, dests, services, _ids = self._script[self._cursor]
        self._cursor += 1
        self.injected += len(sources)
        return BatchArrivals(
            np.zeros(len(sources), dtype=np.int64),
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


def make_engine(topology, script, *, transfer="cut_through", buffer_capacity=None):
    """A serial engine replaying ``script``, tracking every message.

    Tracker slots are handed out in injection order, so with no warm-up
    a message's slot is its script id.
    """
    total_msgs = sum(len(s[0]) for s in script)
    return ClockedEngine(
        topology,
        ScriptedTraffic(topology.width, script),
        transfer=transfer,
        buffer_capacity=buffer_capacity,
        track_limit=max(total_msgs, 1),
    )


def make_reference(topology, script, transfer="cut_through", buffer_capacity=None,
                   n_cycles=None):
    """The reference model after ``n_cycles`` (default: the script and
    200 idle cycles to drain)."""
    n_cycles = len(script) + 200 if n_cycles is None else n_cycles
    ref = ReferenceNetwork(topology, transfer=transfer, buffer_capacity=buffer_capacity)
    ref.run_with_traffic(script[:n_cycles])
    for _ in range(n_cycles - len(script)):
        ref.step_service()
    return ref


def assert_same_end_state(engine, ref, first_tracked=0):
    """The engine stands where the reference model does, port by port.

    Messages before ``first_tracked`` (those injected in a warm-up) hold
    no tracker slot; the rest hold their id less ``first_tracked``.
    """
    assert engine.now == ref.now
    queued = engine.evaluator.queued()
    contents = {}
    for port, track, arrival in zip(
        queued.port.tolist(), queued.track.tolist(), queued.arrival.tolist(), strict=True
    ):
        contents.setdefault(port, []).append((track, arrival))
    expected = {
        port: [(max(msg.msg_id - first_tracked, -1), msg.arrival) for msg in queue]
        for port, queue in enumerate(ref.queues)
        if queue
    }
    assert contents == expected
    busy = np.maximum(engine.evaluator.free - engine.now, 0)
    assert busy.tolist() == ref.busy
    assert engine.evaluator.high_water.tolist() == ref.high_water
    assert engine.in_flight == sum(len(queue) for queue in ref.queues)
    assert engine.dropped == ref.dropped
    assert engine.injected == engine.completed + engine.in_flight + engine.dropped


def run_both(topology, script, transfer="cut_through", buffer_capacity=None):
    """The engine and the reference model over ``script`` plus 200 idle
    cycles, checked against each other's end state."""
    engine = make_engine(topology, script, transfer=transfer,
                         buffer_capacity=buffer_capacity)
    engine.run(len(script) + 200, warmup=0)  # drain
    ref = make_reference(topology, script, transfer, buffer_capacity)
    assert_same_end_state(engine, ref)
    return engine, ref


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
        assert ref.dropped > 0
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
        engine = make_engine(topo, script)
        engine.run(n_cycles, warmup=warmup)
        ref = make_reference(topo, script, n_cycles=n_cycles)
        assert_same_end_state(engine, ref, sum(len(s[0]) for s in script[:warmup]))
        # the statistics hold exactly the waits that started from the warm-up on
        count, total, total_sq = engine.stats.snapshot()
        for stage in range(topo.n_stages):
            waits = [
                wait for (msg, s), wait in ref.waits.items()
                if s == stage and ref.starts[(msg, s)] >= warmup
            ]
            assert count[stage] == len(waits)
            assert total[stage] == sum(waits)
            assert total_sq[stage] == sum(w * w for w in waits)

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
        capacity=st.sampled_from([None, 1, 2, 4]),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_scenarios_small_windows(
        self, seed, k, n_stages, p, max_service, transfer, window, capacity
    ):
        topo = OmegaTopology(k, n_stages)
        script = make_script(
            np.random.default_rng(seed), topo.width, topo.width, 30,
            p=p, max_service=max_service,
        )
        with patch.object(stagewise, "WINDOW_MESSAGES", window):
            engine, ref = run_both(topo, script, transfer=transfer,
                                   buffer_capacity=capacity)
        assert_identical(engine, ref, topo)


class TestStateAndResume:
    """A run resumes from the end state of the one before."""

    @pytest.mark.parametrize("window", [1, 40, stagewise.WINDOW_MESSAGES])
    @pytest.mark.parametrize("transfer", ["cut_through", "store_forward"])
    @pytest.mark.parametrize("capacity", [None, 3])
    def test_split_run_matches_reference_throughout(
        self, window, transfer, capacity, monkeypatch
    ):
        monkeypatch.setattr(stagewise, "WINDOW_MESSAGES", window)
        topo = OmegaTopology(2, 3)
        script = make_script(np.random.default_rng(20), 8, 8, 120, p=0.8, max_service=3)
        engine = make_engine(topo, script, transfer=transfer, buffer_capacity=capacity)
        engine.run(70, warmup=0)
        ref = make_reference(topo, script, transfer, capacity, n_cycles=70)
        assert engine.in_flight > 0 and (engine.evaluator.free > engine.now).any()
        assert_same_end_state(engine, ref)
        engine.run(90, warmup=0)  # resumes the queues and busy ports left at 70
        ref = make_reference(topo, script, transfer, capacity, n_cycles=160)
        assert_same_end_state(engine, ref)
        assert_identical(engine, ref, topo)

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
    def test_network_results_bit_identical(self, kw):
        """Observers and the window size change nothing: a run observed
        in 300-message windows equals an unobserved one in full windows."""
        cfg = NetworkConfig(seed=31, **kw)
        plain = NetworkSimulator(cfg)
        observed = NetworkSimulator(cfg)
        observed.attach_metrics(MetricsCollector(stride=1))
        observed.engine.add_observer(MessageTracer(limit=100))
        a = plain.run(1500, warmup=200)
        with patch.object(stagewise, "WINDOW_MESSAGES", 300):
            b = observed.run(1500, warmup=200)
        for name in ("count", "shift", "total", "total_sq"):
            assert np.array_equal(
                getattr(plain.engine.stats, name), getattr(observed.engine.stats, name)
            ), name
        for name in ("stage_means", "stage_variances", "stage_counts"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert np.array_equal(a.tracked.waits, b.tracked.waits)
        for name in ("n_cycles", "warmup", "injected", "completed", "dropped",
                     "max_occupancy", "backend", "timings", "totals_summary"):
            assert getattr(a, name) == getattr(b, name), name
        assert np.array_equal(plain.engine.evaluator.high_water,
                              observed.engine.evaluator.high_water)
        assert plain.engine.in_flight == observed.engine.in_flight


class StackedScriptedTraffic:
    """Replays one traffic script per replica into a stacked engine,
    replica-major within each cycle as ``generate_batch`` draws them."""

    def __init__(self, width: int, scripts: List[List[tuple]]) -> None:
        self.width = width
        self.n_replicas = len(scripts)
        self._scripts = scripts
        self._cursor = 0
        self.injected = 0

    def generate_batch(self) -> BatchArrivals:
        rows = [
            (r, *script[self._cursor][:3])
            for r, script in enumerate(self._scripts)
            if self._cursor < len(script)
        ]
        self._cursor += 1
        parts = [
            (np.full(len(sources), r), sources, dests, services)
            for r, sources, dests, services in rows
        ]
        if not parts:
            empty = np.empty(0, dtype=np.int64)
            return BatchArrivals(empty, empty, empty, empty)
        arrivals = BatchArrivals(
            *(np.concatenate(field).astype(np.int64) for field in zip(*parts, strict=True))
        )
        self.injected += arrivals.sources.size
        return arrivals


def make_row_script(rng, width, n_cycles, p, sizes, bulk, q):
    """One replica's script: load ``p``, services drawn from ``sizes``,
    bulks of ``bulk`` packets, favourite (own-output) bias ``q``."""
    script = []
    next_id = 0
    for _ in range(n_cycles):
        active = np.flatnonzero(rng.random(width) < p)
        dests = rng.integers(0, width, size=active.size)
        if q > 0:
            dests = np.where(rng.random(active.size) < q, active, dests)
        if bulk > 1:
            active = np.repeat(active, bulk)
            dests = np.repeat(dests, bulk)
        services = rng.choice(np.asarray(sizes), size=active.size)
        ids = np.arange(next_id, next_id + active.size)
        next_id += active.size
        script.append((active, dests, services, ids))
    return script


ROW_PARAMS = st.tuples(
    st.floats(min_value=0.05, max_value=0.9),                   # p
    st.sampled_from([(1,), (2,), (1, 3), (1, 2, 4)]),           # service mix
    st.sampled_from([1, 1, 2, 3]),                              # bulk
    st.sampled_from([0.0, 0.0, 0.4]),                           # q
)


class TestStackedDifferential:
    """An engine of R > 1 replicas against one reference model per replica.

    Every replica replays its own script (rows differ in load, service
    mix, bulk and favourite bias) and must match the reference model fed
    the same arrivals: per-stage statistics, tracked waits, per-port
    high-water marks, end-of-run queues and busy ports, and counts.
    """

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.sampled_from([2, 3]),
        n_stages=st.integers(min_value=1, max_value=3),
        transfer=st.sampled_from(["cut_through", "store_forward"]),
        rows=st.lists(ROW_PARAMS, min_size=2, max_size=4),
        window=st.sampled_from([*WINDOWS, stagewise.WINDOW_MESSAGES]),
        drain=st.sampled_from([0, 6, 200]),
    )
    @settings(max_examples=20, deadline=None)
    def test_replicas_match_their_reference_models(
        self, seed, k, n_stages, transfer, rows, window, drain
    ):
        topo = OmegaTopology(k, n_stages)
        rng = np.random.default_rng(seed)
        scripts = [
            make_row_script(rng, topo.width, 30, p, sizes, bulk, q)
            for p, sizes, bulk, q in rows
        ]
        n_msgs = [sum(len(cycle[0]) for cycle in script) for script in scripts]
        limit = max(max(n_msgs), 1)
        engine = ClockedEngine(
            topo,
            StackedScriptedTraffic(topo.width, scripts),
            transfer=transfer,
            track_limit=limit,
        )
        with patch.object(stagewise, "WINDOW_MESSAGES", window):
            engine.run(30 + drain, warmup=0)

        n_replicas, ppr = len(scripts), n_stages * topo.width
        count, total, total_sq = (a.reshape(n_replicas, n_stages) for a in engine.stats.snapshot())
        high_water = engine.evaluator.high_water.reshape(n_replicas, ppr)
        busy = np.maximum(engine.evaluator.free - engine.now, 0).reshape(n_replicas, ppr)
        queued = engine.evaluator.queued()
        for r, script in enumerate(scripts):
            ref = make_reference(topo, script, transfer, n_cycles=30 + drain)
            waits = engine.tracker.waits[r * limit : r * limit + n_msgs[r]]
            for (msg_id, stage), ref_wait in ref.waits.items():
                assert waits[msg_id, stage] == ref_wait, (r, msg_id, stage)
            assert int((waits >= 0).sum()) == len(ref.waits)
            for stage in range(n_stages):
                stage_waits = [w for (_, s), w in ref.waits.items() if s == stage]
                assert count[r, stage] == len(stage_waits)
                assert total[r, stage] == sum(stage_waits)
                assert total_sq[r, stage] == sum(w * w for w in stage_waits)
            assert high_water[r].tolist() == ref.high_water
            assert busy[r].tolist() == ref.busy
            mine = queued.port // ppr == r
            contents = {}
            for port, track in zip(
                (queued.port[mine] - r * ppr).tolist(), queued.track[mine].tolist(), strict=True
            ):
                contents.setdefault(port, []).append(track - r * limit)
            assert contents == {
                port: [msg.msg_id for msg in queue]
                for port, queue in enumerate(ref.queues)
                if queue
            }
            assert engine.evaluator.injected[r] == n_msgs[r]
            assert engine.evaluator.completed[r] == len(ref.completed)
            assert engine.evaluator.dropped[r] == 0
