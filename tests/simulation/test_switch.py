"""Ring-buffer queue tests, including the FIFO and growth invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simulation.switch import RingBufferQueues


def make(n=4, cap=4, finite=False):
    return RingBufferQueues(n, {"val": np.int64}, capacity=cap, finite=finite)


class TestBasics:
    def test_push_pop_roundtrip(self):
        q = make()
        q.push_batch(np.array([0, 1]), val=np.array([10, 20]))
        out = q.pop(np.array([0, 1]))
        assert out["val"].tolist() == [10, 20]
        assert q.total_occupancy() == 0

    def test_fifo_order_within_queue(self):
        q = make()
        q.push_batch(np.array([2, 2, 2]), val=np.array([1, 2, 3]))
        assert q.pop(np.array([2]))["val"][0] == 1
        assert q.pop(np.array([2]))["val"][0] == 2
        assert q.pop(np.array([2]))["val"][0] == 3

    def test_same_cycle_multi_queue_interleaved(self):
        q = make()
        q.push_batch(np.array([0, 1, 0, 1]), val=np.array([1, 2, 3, 4]))
        assert q.counts.tolist() == [2, 2, 0, 0]
        out = q.pop(np.array([0, 1]))
        assert out["val"].tolist() == [1, 2]

    def test_peek_does_not_consume(self):
        q = make()
        q.push_batch(np.array([3]), val=np.array([9]))
        assert q.peek(np.array([3]), "val")[0] == 9
        assert q.counts[3] == 1

    def test_pop_empty_raises(self):
        q = make()
        with pytest.raises(SimulationError):
            q.pop(np.array([0]))

    def test_push_requires_all_fields(self):
        q = RingBufferQueues(2, {"a": np.int64, "b": np.int64})
        with pytest.raises(SimulationError):
            q.push_batch(np.array([0]), a=np.array([1]))

    def test_empty_push_is_noop(self):
        q = make()
        assert q.push_batch(np.array([], dtype=int), val=np.array([], dtype=int)) == 0


class TestGrowth:
    def test_grows_past_capacity(self):
        q = make(n=2, cap=2)
        q.push_batch(np.array([0] * 10), val=np.arange(10))
        assert q.counts[0] == 10
        got = [q.pop(np.array([0]))["val"][0] for _ in range(10)]
        assert got == list(range(10))

    def test_growth_preserves_ring_wrap(self):
        q = make(n=1, cap=4)
        # advance the ring: push 3, pop 2, then force growth
        q.push_batch(np.array([0, 0, 0]), val=np.array([1, 2, 3]))
        q.pop(np.array([0]))
        q.pop(np.array([0]))
        q.push_batch(np.array([0] * 6), val=np.array([4, 5, 6, 7, 8, 9]))
        got = [q.pop(np.array([0]))["val"][0] for _ in range(7)]
        assert got == [3, 4, 5, 6, 7, 8, 9]

    def test_max_occupancy_tracked(self):
        q = make(n=2, cap=8)
        q.push_batch(np.array([0] * 5), val=np.arange(5))
        assert q.max_occupancy == 5


class TestFiniteMode:
    def test_overflow_dropped_and_counted(self):
        q = make(n=1, cap=3, finite=True)
        stored = q.push_batch(np.array([0] * 5), val=np.arange(5))
        assert stored == 3
        assert q.dropped == 2
        assert q.counts[0] == 3
        # FIFO kept the earliest messages
        assert q.pop(np.array([0]))["val"][0] == 0

    def test_drops_only_overflowing_queue(self):
        q = make(n=2, cap=2, finite=True)
        q.push_batch(np.array([0, 0, 0, 1]), val=np.array([1, 2, 3, 4]))
        assert q.dropped == 1
        assert q.counts.tolist() == [2, 1]


class TestValidation:
    def test_bad_sizes(self):
        with pytest.raises(SimulationError):
            RingBufferQueues(0, {"v": np.int64})
        with pytest.raises(SimulationError):
            RingBufferQueues(1, {"v": np.int64}, capacity=0)


class TestPropertyBased:
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),  # queue id
                st.integers(min_value=1, max_value=5),  # how many to push
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_fifo_against_reference_model(self, ops):
        """Push/pop against plain Python lists as the reference."""
        q = RingBufferQueues(3, {"v": np.int64}, capacity=2)
        model = {0: [], 1: [], 2: []}
        counter = 0
        for queue_id, count in ops:
            vals = np.arange(counter, counter + count)
            counter += count
            q.push_batch(np.full(count, queue_id), v=vals)
            model[queue_id].extend(vals.tolist())
            # drain one from every non-empty queue, like the engine does
            ready = [qq for qq in range(3) if model[qq]]
            if ready:
                out = q.pop(np.array(ready))
                expect = [model[qq].pop(0) for qq in ready]
                assert out["v"].tolist() == expect
        assert q.total_occupancy() == sum(len(v) for v in model.values())


class TestPopValidation:
    def test_pop_empty_leaves_state_intact(self):
        """A bad pop must raise *before* mutating head/count (regression:
        the old code decremented first, corrupting the queues)."""
        q = make()
        q.push_batch(np.array([0, 0]), val=np.array([1, 2]))
        before = q.counts.copy()
        with pytest.raises(SimulationError):
            q.pop(np.array([0, 3]))  # queue 3 is empty
        assert q.counts.tolist() == before.tolist()
        # the untouched queue still pops in FIFO order
        assert q.pop(np.array([0]))["val"][0] == 1
        assert q.pop(np.array([0]))["val"][0] == 2


class TestAppearanceRanks:
    def test_high_multiplicity_fifo(self):
        """Many same-cycle messages to one queue keep appearance order
        through the peel-loop rank path."""
        q = make(n=2, cap=2)
        queues = np.array([0, 1, 0, 0, 1, 0, 0])
        q.push_batch(queues, val=np.arange(7))
        assert q.pop(np.array([0]))["val"][0] == 0
        assert q.pop(np.array([0]))["val"][0] == 2
        assert q.pop(np.array([0]))["val"][0] == 3
        assert q.pop(np.array([1]))["val"][0] == 1

    def test_rank_matches_argsort_reference(self):
        rng = np.random.default_rng(3)
        q = make(n=8, cap=64)
        for _ in range(25):
            n = int(rng.integers(1, 30))
            queues = rng.integers(0, 8, size=n)
            # reference: stable-argsort grouped cumcount
            order = np.argsort(queues, kind="stable")
            sorted_q = queues[order]
            first = np.concatenate(([True], sorted_q[1:] != sorted_q[:-1]))
            start = np.maximum.accumulate(np.where(first, np.arange(n), 0))
            expected = np.empty(n, dtype=np.int64)
            expected[order] = np.arange(n) - start
            binc = np.bincount(queues, minlength=8)
            got = q._appearance_ranks(queues, binc)
            assert np.array_equal(got, expected)


class TestHighWater:
    def test_high_water_survives_pops(self):
        q = make()
        q.push_batch(np.array([1, 1, 1]), val=np.array([1, 2, 3]))
        q.pop(np.array([1]))
        q.pop(np.array([1]))
        assert q.max_occupancy == 3
        assert q.high_water().tolist() == [0, 3, 0, 0]

    def test_high_water_per_queue(self):
        q = make()
        q.push_batch(np.array([0, 0, 2]), val=np.array([1, 2, 3]))
        q.pop(np.array([0]))
        q.push_batch(np.array([2, 2]), val=np.array([4, 5]))
        assert q.high_water().tolist() == [2, 0, 3, 0]
        assert q.max_occupancy == 3


class TestRestore:
    def test_restore_equals_pushing_the_same_fifos(self):
        queues = np.array([0, 0, 0, 0, 0, 0, 2, 3, 3])  # queue 0 outgrows cap=4
        vals = np.arange(queues.size) * 10
        restored, pushed = make(), make()
        restored.restore(queues, np.array([7, 0, 1, 2]), val=vals)
        pushed.push_batch(queues, val=vals)
        assert restored.counts.tolist() == pushed.counts.tolist()
        assert restored.high_water().tolist() == [7, 0, 1, 2]
        while restored.total_occupancy():
            live = np.flatnonzero(restored.counts)
            assert restored.pop(live)["val"].tolist() == pushed.pop(live)["val"].tolist()

    def test_restore_takes_groups_in_any_queue_order(self):
        """Stacked pass state lists ports stage by stage, so for more than
        one replica the groups are not in ascending queue order."""
        q = make(n=2)
        q.restore(np.array([1, 1, 0]), np.zeros(2, np.int64), val=np.array([10, 11, 20]))
        popped = [q.pop(np.array([queue]))["val"][0] for queue in (1, 1, 0)]
        assert popped == [10, 11, 20]

    def test_restore_refuses_ungrouped_queues(self):
        q = make()
        with pytest.raises(SimulationError, match="grouped by queue"):
            q.restore(np.array([0, 1, 0]), np.zeros(4, np.int64), val=np.arange(3))
        assert q.total_occupancy() == 0 and q.max_occupancy == 0

    def test_restore_refuses_occupied_or_finite_queues(self):
        q = make()
        q.push_batch(np.array([1]), val=np.array([5]))
        with pytest.raises(SimulationError, match="empty infinite-buffer"):
            q.restore(np.array([0]), np.zeros(4, dtype=np.int64), val=np.array([1]))
        with pytest.raises(SimulationError, match="empty infinite-buffer"):
            make(finite=True).restore(np.array([0]), np.zeros(4, np.int64), val=np.array([1]))
