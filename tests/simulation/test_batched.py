"""Stacked runs: serial equivalence and statistical validity.

Two layers of evidence that the stacked path simulates the same system
as a serial :class:`~repro.simulation.network.NetworkSimulator`:

* **bit-for-bit** -- every replica draws from its own config's streams
  exactly as a serial run does, so a one-replica batch must match the
  serial run exactly, across traffic/service/topology/transfer
  variants (``test_one_contract.py`` checks larger batches);
* **statistically at R=32** -- the cross-replication t-interval on the
  mean first-stage wait must cover Theorem 1's exact ``E[w]`` at load
  points up to ``rho = 0.9`` (heavy traffic, where a subtly wrong
  queue discipline shows up first).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.arrivals.bernoulli import UniformTraffic
from repro.core.first_stage import FirstStageQueue
from repro.errors import SimulationError
from repro.service.deterministic import DeterministicService
from repro.simulation.batched import run_batched, run_stacked
from repro.simulation.engine import ClockedEngine
from repro.simulation.network import NetworkConfig, NetworkSimulator, build_engine
from repro.simulation.replication import replicated_statistic
from repro.simulation.stats import BatchedTrackedMessages, TrackedMessages


def assert_results_identical(serial, batched):
    assert np.array_equal(serial.stage_counts, batched.stage_counts)
    assert np.array_equal(serial.stage_means, batched.stage_means, equal_nan=True)
    assert np.array_equal(
        serial.stage_variances, batched.stage_variances, equal_nan=True
    )
    assert serial.injected == batched.injected
    assert serial.completed == batched.completed
    assert serial.max_occupancy == batched.max_occupancy
    assert serial.dropped == batched.dropped == 0
    assert np.array_equal(
        serial.tracked.complete_rows(), batched.tracked.complete_rows()
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(k=2, n_stages=3, p=0.5, topology="omega"),
        dict(k=2, n_stages=6, p=0.7, topology="random", width=8),
        dict(k=2, n_stages=3, p=0.4, topology="butterfly", bulk_size=2),
        dict(k=2, n_stages=3, p=0.5, topology="baseline", q=0.3),
        dict(
            k=2, n_stages=3, p=0.3, message_size=3, transfer="store_forward"
        ),
        dict(k=2, n_stages=3, p=0.4, sizes=(1, 3), probabilities=(0.5, 0.5)),
        dict(k=4, n_stages=2, p=0.6, topology="omega"),
    ],
    ids=["omega", "random-deep", "bulk", "favourite", "store-forward",
         "multisize", "k4"],
)
def test_single_replica_bit_identical_to_serial(kwargs):
    config = NetworkConfig(seed=42, **kwargs)
    serial = NetworkSimulator(config).run(n_cycles=2_000)
    [batched] = run_batched(config, [42], 2_000)
    assert_results_identical(serial, batched)
    assert batched.config == config
    assert batched.warmup == serial.warmup


def test_replicas_differ_and_carry_their_seeds():
    config = NetworkConfig(k=2, n_stages=3, p=0.5, topology="random", width=16)
    seeds = [7, 8, 9]
    results = run_batched(config, seeds, 2_000)
    assert [r.config.seed for r in results] == seeds
    means = [r.stage_means[0] for r in results]
    assert len(set(means)) == len(means), "replicas produced identical paths"
    for r in results:
        assert r.stage_means.shape == (config.n_stages,)
        assert r.stage_counts.sum() > 0
        assert r.tracked.complete_rows().shape[1] == config.n_stages


def test_per_replica_conservation():
    """Injected/completed/occupancy bookkeeping is per replica."""
    config = NetworkConfig(k=2, n_stages=3, p=0.6, topology="omega")
    results = run_batched(config, [1, 2, 3, 4], 3_000)
    for r in results:
        assert r.injected >= r.completed > 0
        assert r.max_occupancy >= 1


@pytest.mark.parametrize("p,n_cycles,warmup", [
    (0.3, 6_000, None),
    (0.6, 6_000, None),
    # rho = 0.9: the relaxation time scales like 1/(1-rho)^2, and short
    # runs bias the sampled mean visibly upward -- heavy traffic needs
    # a longer horizon and warm-up to meet the exact value
    (0.9, 16_000, 3_000),
])
def test_r32_interval_covers_theorem_1(p, n_cycles, warmup):
    """32-replica t-interval on the first-stage mean vs exact E[w]."""
    config = NetworkConfig(k=2, n_stages=4, p=p, topology="random", width=16)
    results = run_batched(config, list(range(500, 532)), n_cycles, warmup=warmup)
    exact = float(
        FirstStageQueue(UniformTraffic(2, p), DeterministicService(1)).waiting_mean()
    )
    stat = replicated_statistic(results, lambda r: float(r.stage_means[0]))
    assert stat.covers(exact), (
        f"p={p}: interval {stat.interval()} misses exact E[w]={exact:.4f}"
    )


# ----------------------------------------------------------------------
# run_stacked: seeds of one scenario per stack
# ----------------------------------------------------------------------
def test_stacked_identical_rows_bit_identical_to_run_batched():
    """Anchor 1: a config list of one scenario under several seeds
    reproduces run_batched exactly."""
    from dataclasses import replace

    config = NetworkConfig(
        k=2, n_stages=4, p=0.6, topology="random", width=16, bulk_size=2
    )
    seeds = [11, 12, 13, 14]
    stacked = run_stacked([replace(config, seed=s) for s in seeds], 3_000)
    batched = run_batched(config, seeds, 3_000)
    for a, b in zip(stacked, batched, strict=True):
        assert_results_identical(a, b)
        assert a.config == b.config


def test_stacked_single_scenario_bit_identical_to_serial():
    """Anchor 2: an R=1 stack reproduces ClockedEngine bit-for-bit."""
    config = NetworkConfig(
        k=2, n_stages=3, p=0.5, topology="omega", q=0.3, seed=42
    )
    serial = NetworkSimulator(config).run(n_cycles=2_000)
    [stacked] = run_stacked([config], 2_000)
    assert_results_identical(serial, stacked)


def test_stacked_load_sweep_intervals_cover_theorem_1():
    """Anchor 3: a grid over loads x seeds, one stack per load; each
    load's cross-replication t-interval must cover Theorem 1's exact
    E[w]."""
    from dataclasses import replace

    base = NetworkConfig(k=2, n_stages=4, p=0.5, topology="random", width=16)
    loads = [0.3, 0.6]
    seeds = range(700, 716)
    for p in loads:
        per_load = run_stacked([replace(base, p=p, seed=s) for s in seeds], 8_000)
        exact = float(
            FirstStageQueue(
                UniformTraffic(2, p), DeterministicService(1)
            ).waiting_mean()
        )
        stat = replicated_statistic(per_load, lambda r: float(r.stage_means[0]))
        assert stat.covers(exact), (
            f"p={p}: interval {stat.interval()} misses exact E[w]={exact:.4f}"
        )


def test_stacked_results_track_their_own_scenario():
    """A stack's statistics respond to its scenario's parameters."""
    from dataclasses import replace

    base = NetworkConfig(k=2, n_stages=3, p=0.2, topology="random", width=16)
    [light], [heavy] = (run_stacked([replace(base, p=p, seed=9)], 4_000) for p in (0.2, 0.9))
    assert heavy.injected > 2 * light.injected
    assert heavy.stage_means[0] > light.stage_means[0]


def test_stacked_rejects_shape_mismatches():
    from dataclasses import replace

    base = NetworkConfig(k=2, n_stages=3, p=0.5, topology="random", width=16)
    with pytest.raises(SimulationError, match="n_stages"):
        run_stacked([base, replace(base, n_stages=4)], 1_000)
    with pytest.raises(SimulationError, match="width"):
        run_stacked([base, replace(base, width=8)], 1_000)
    with pytest.raises(SimulationError, match="one scenario: p="):
        run_stacked([base, replace(base, p=0.6)], 1_000)
    with pytest.raises(SimulationError, match="at least one"):
        run_stacked([], 1_000)


def test_rejects_auto_warmup_and_bad_batches():
    """Finite buffers stack (``test_one_contract.py``); a per-run warm-up
    pilot, an empty batch and a warm-up past the run do not."""
    ok = NetworkConfig(k=2, n_stages=3, p=0.5)
    with pytest.raises(SimulationError, match="auto"):
        run_batched(ok, [1, 2], 1_000, warmup="auto")
    with pytest.raises(SimulationError):
        run_batched(ok, [], 1_000)
    with pytest.raises(SimulationError):
        run_batched(ok, [1], 1_000, warmup=1_000)


def test_engine_validates_replica_mismatch():
    """The engine stacks one replica per traffic source, and refuses no
    source at all."""
    config = NetworkConfig(k=2, n_stages=3, p=0.5)
    topology = config.build_topology()
    traffic = [config.build_traffic(np.random.default_rng(s), topology) for s in range(3)]
    engine = ClockedEngine(topology, traffic)
    assert engine.n_replicas == 3
    assert engine.stats.count.size == 3 * config.n_stages
    assert engine.evaluator.n_ports == 3 * config.n_stages * topology.width
    with pytest.raises(SimulationError, match="none"):
        ClockedEngine(topology, [])


def test_batched_tracker_matches_serial_allocation():
    """Per-replica slot ids replay the serial tracker's sequence, however
    the messages are split into windows."""
    rng = np.random.default_rng(5)
    batched = BatchedTrackedMessages(n_replicas=3, limit=10, n_stages=2)
    serials = [TrackedMessages(10, 2) for _ in range(3)]
    for window in range(20):
        counts = rng.integers(0, 4, size=3)
        replicas = np.repeat(np.arange(3), counts)
        rng.shuffle(replicas)  # injection order interleaves replicas
        cycles = np.full(replicas.size, window)
        got = batched.assign(replicas, cycles)
        expected = np.empty(replicas.size, dtype=np.int64)
        for r in range(3):
            mine = replicas == r
            expected[mine] = serials[r].assign(
                np.zeros(int(mine.sum()), dtype=np.int64), cycles[mine]
            )
        # serial ids are replica-local; batched ids are offset by r*limit
        offset = np.where(expected >= 0, replicas * 10, 0)
        assert np.array_equal(got, expected + offset)


def test_batched_tracker_rows_partition_by_replica():
    tracker = BatchedTrackedMessages(n_replicas=2, limit=4, n_stages=1)
    ids = tracker.assign(np.array([0, 1, 0]), np.zeros(3, dtype=np.int64))
    tracker.record(ids, 0, np.array([1.0, 3.0, 2.0]))
    assert tracker.replica_tracker(0).complete_rows().ravel().tolist() == [1.0, 2.0]
    assert tracker.replica_tracker(1).complete_rows().ravel().tolist() == [3.0]


@pytest.mark.parametrize("p, bulk_size", [(0.3, 1), (1.0, 2)])
def test_sized_tracker_keeps_every_message(p, bulk_size):
    """A stack built for one run holds only the rows that run can fill --
    every input injecting a bulk every measured cycle fills them exactly
    -- and tracks what a full-size tracker does."""
    configs = [
        NetworkConfig(k=2, n_stages=3, p=p, bulk_size=bulk_size, seed=s) for s in (1, 2)
    ]
    sized = build_engine(configs, measured_cycles=300)
    full = build_engine(configs)
    rows = 8 * bulk_size * 300
    assert sized.tracker.rows == rows
    assert sized.tracker.waits.shape == (2 * rows, 3)
    assert full.tracker.waits.shape == (2 * configs[0].track_limit, 3)
    sized.run(400, warmup=100)
    full.run(400, warmup=100)
    for r in range(2):
        assert np.array_equal(
            sized.tracker.replica_tracker(r).complete_rows(),
            full.tracker.replica_tracker(r).complete_rows(),
        )
    if p == 1.0:
        assert (sized.tracker._taken == rows).all()
    # a second run can inject more than the rows were sized for
    with pytest.raises(SimulationError, match="sized for"):
        sized.run(2_000, warmup=0)


def test_elapsed_seconds_is_amortised():
    config = NetworkConfig(k=2, n_stages=3, p=0.5)
    results = run_batched(config, [1, 2, 3, 4], 1_500)
    per_replica = {r.elapsed_seconds for r in results}
    assert len(per_replica) == 1 and per_replica.pop() > 0


def stacked_engine(config: NetworkConfig, n_replicas: int) -> ClockedEngine:
    """An engine of ``n_replicas`` copies of ``config``'s network, seeded
    ``config.seed``, ``+ 1``, ..."""
    return build_engine(
        [replace(config, seed=config.seed + r) for r in range(n_replicas)]
    )


class TestStackedEngine:
    def test_stacked_engine_resumes(self):
        """A stacked engine carries its pass state into the next run, as a
        serial one does: 300 + 100 cycles are 400 cycles."""
        config = NetworkConfig(k=2, n_stages=3, p=0.6, topology="random", width=16, seed=4)
        split, whole = stacked_engine(config, 3), stacked_engine(config, 3)
        split.run(300)
        split.run(100)
        whole.run(400)
        for name in ("count", "shift", "total", "total_sq"):
            assert np.array_equal(getattr(split.stats, name), getattr(whole.stats, name))
        assert np.array_equal(split.tracker.waits, whole.tracker.waits)
        for name in ("injected", "completed", "high_water"):
            assert np.array_equal(
                getattr(split.evaluator, name), getattr(whole.evaluator, name)
            )
        assert split.in_flight == whole.in_flight == split.injected - split.completed

    def test_stacked_engine_refuses_observers(self):
        from repro.obs.metrics import MetricsCollector

        engine = stacked_engine(NetworkConfig(k=2, n_stages=3, p=0.5, seed=1), 2)
        with pytest.raises(SimulationError, match="observers"):
            engine.add_observer(MetricsCollector())
