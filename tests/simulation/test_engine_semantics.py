"""Timing-semantics tests for the clocked engine.

These pin the cycle-level contract the analysis relies on, using
single-message scenarios where every event time is known in closed
form.
"""

import numpy as np

from repro.simulation.engine import ClockedEngine
from repro.simulation.topology import OmegaTopology
from repro.simulation.trace import MessageTracer
from repro.simulation.traffic import BatchArrivals


class OneShotTraffic:
    """Injects a fixed set of messages at chosen cycles, then silence."""

    n_replicas = 1

    def __init__(self, width, schedule):
        self.width = width
        self.schedule = dict(schedule)  # cycle -> (sources, dests, services)
        self.cycle = 0
        self.injected = 0

    def generate_batch(self):
        entry = self.schedule.get(self.cycle)
        self.cycle += 1
        if entry is None:
            empty = np.empty(0, dtype=np.int64)
            return BatchArrivals(empty, empty, empty, empty)
        sources, dests, services = (np.asarray(x, dtype=np.int64) for x in entry)
        self.injected += sources.size
        return BatchArrivals(np.zeros_like(sources), sources, dests, services)


def run_single(service, transfer, n_stages=3, inject_at=0):
    topo = OmegaTopology(2, n_stages)
    traffic = OneShotTraffic(
        topo.width, {inject_at: ([0], [topo.width - 1], [service])}
    )
    tracer = MessageTracer(limit=8)
    engine = ClockedEngine(topo, traffic, transfer=transfer)
    engine.add_observer(tracer)
    engine.run(40, warmup=0)
    return engine, tracer.journey(0)


class TestCutThroughTiming:
    def test_unit_service_one_stage_per_cycle(self):
        engine, j = run_single(service=1, transfer="cut_through")
        cycles = [e.cycle for e in sorted(j.events, key=lambda e: e.stage)]
        assert cycles == [0, 1, 2]
        assert j.total_wait == 0
        assert engine.completed == 1

    def test_multipacket_head_still_pipelines(self):
        """m = 4 in an empty network: head crosses one stage per cycle;
        total service is n + m - 1 from the last port's perspective."""
        engine, j = run_single(service=4, transfer="cut_through")
        cycles = [e.cycle for e in sorted(j.events, key=lambda e: e.stage)]
        assert cycles == [0, 1, 2]
        assert j.total_wait == 0
        # last-stage port busy until cycle 2 + 4 = 6 exclusive: tail
        # leaves the network at n + m - 1 = 6
        last_port_busy_until = cycles[-1] + 4
        assert last_port_busy_until == 3 + 4 - 1

    def test_back_to_back_messages_spaced_by_service(self):
        """Two m=3 messages to the same first-stage queue: the second
        starts service exactly m cycles after the first."""
        topo = OmegaTopology(2, 1)
        traffic = OneShotTraffic(
            topo.width, {0: ([0, 1], [0, 0], [3, 3])}
        )
        tracer = MessageTracer(limit=4)
        engine = ClockedEngine(topo, traffic)
        engine.add_observer(tracer)
        engine.run(20, warmup=0)
        starts = sorted(
            j.events[0].cycle for j in [tracer.journey(0), tracer.journey(1)]
        )
        assert starts[1] - starts[0] == 3
        waits = sorted(
            j.events[0].wait for j in [tracer.journey(0), tracer.journey(1)]
        )
        assert waits == [0, 3]


class TestStoreForwardTiming:
    def test_stage_crossing_takes_full_service(self):
        engine, j = run_single(service=4, transfer="store_forward")
        cycles = [e.cycle for e in sorted(j.events, key=lambda e: e.stage)]
        # service starts at 0, 4, 8: each hop waits for the full message
        assert cycles == [0, 4, 8]
        assert j.total_wait == 0

    def test_unit_service_equals_cut_through(self):
        a, ja = run_single(service=1, transfer="cut_through")
        b, jb = run_single(service=1, transfer="store_forward")
        assert [e.cycle for e in ja.events] == [e.cycle for e in jb.events]


class TestArrivalCycleService:
    def test_message_served_in_arrival_cycle_when_idle(self):
        """The analysis's convention: zero wait is possible."""
        engine, j = run_single(service=1, transfer="cut_through", inject_at=7)
        first = min(j.events, key=lambda e: e.stage)
        assert first.cycle == 7
        assert first.wait == 0
