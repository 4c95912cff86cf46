"""Replica-batched engine: serial equivalence and statistical validity.

Two layers of evidence that the stacked path simulates the same system
as :class:`~repro.simulation.engine.ClockedEngine`:

* **bit-for-bit at R=1** -- a one-replica batch shares the serial
  engine's seeding (``SeedSequence([s]) == SeedSequence(s)``) and
  consumes the RNG stream identically, so every statistic must match
  exactly, across traffic/service/topology/transfer variants;
* **statistically at R=32** -- the cross-replication t-interval on the
  mean first-stage wait must cover Theorem 1's exact ``E[w]`` at load
  points up to ``rho = 0.9`` (heavy traffic, where a subtly wrong
  queue discipline shows up first).
"""

import numpy as np
import pytest

from repro.arrivals.bernoulli import UniformTraffic
from repro.core.first_stage import FirstStageQueue
from repro.errors import ModelError, SimulationError
from repro.service.deterministic import DeterministicService
from repro.simulation.batched import run_batched, run_stacked
from repro.simulation.engine import ClockedEngine
from repro.simulation.network import NetworkConfig, NetworkSimulator
from repro.simulation.replication import replicated_statistic
from repro.simulation.stats import BatchedTrackedMessages, TrackedMessages
from repro.simulation.traffic import NetworkTrafficGenerator


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
# scenario stacking (run_stacked): heterogeneous parameter batches
# ----------------------------------------------------------------------
def test_stacked_identical_rows_bit_identical_to_run_batched():
    """Anchor 1: a 'heterogeneous' batch whose rows happen to be
    identical must reproduce the homogeneous batched engine exactly."""
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
    """Anchor 3: one stacked grid over loads x seeds; each load's
    cross-replication t-interval must cover Theorem 1's exact E[w]."""
    from dataclasses import replace

    base = NetworkConfig(k=2, n_stages=4, p=0.5, topology="random", width=16)
    loads = [0.3, 0.6]
    seeds = range(700, 716)
    configs = [
        replace(base, p=p, seed=s) for p in loads for s in seeds
    ]
    results = run_stacked(configs, 8_000)
    n_seeds = len(list(seeds))
    for j, p in enumerate(loads):
        per_load = results[j * n_seeds : (j + 1) * n_seeds]
        assert all(r.config.p == p for r in per_load)
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
    """Per-replica statistics respond to that replica's parameters."""
    from dataclasses import replace

    base = NetworkConfig(k=2, n_stages=3, p=0.2, topology="random", width=16)
    configs = [replace(base, p=p, seed=9) for p in (0.2, 0.9)]
    light, heavy = run_stacked(configs, 4_000)
    assert heavy.injected > 2 * light.injected
    assert heavy.stage_means[0] > light.stage_means[0]


def test_stacked_rejects_shape_mismatches():
    from dataclasses import replace

    base = NetworkConfig(k=2, n_stages=3, p=0.5, topology="random", width=16)
    with pytest.raises(SimulationError, match="n_stages"):
        run_stacked([base, replace(base, n_stages=4)], 1_000)
    with pytest.raises(SimulationError, match="width"):
        run_stacked([base, replace(base, width=8)], 1_000)
    with pytest.raises(SimulationError, match="at least one"):
        run_stacked([], 1_000)


def test_rejects_finite_buffers_and_auto_warmup():
    config = NetworkConfig(k=2, n_stages=3, p=0.5, buffer_capacity=4)
    with pytest.raises(SimulationError, match="infinite buffers"):
        run_batched(config, [1, 2], 1_000)
    ok = NetworkConfig(k=2, n_stages=3, p=0.5)
    with pytest.raises(SimulationError, match="auto"):
        run_batched(ok, [1, 2], 1_000, warmup="auto")
    with pytest.raises(SimulationError):
        run_batched(ok, [], 1_000)
    with pytest.raises(SimulationError):
        run_batched(ok, [1], 1_000, warmup=1_000)


def test_engine_validates_replica_mismatch():
    """The engine stacks exactly its traffic's replicas -- there is no
    second replica count to disagree with -- and the traffic refuses
    per-replica parameters of another length."""
    config = NetworkConfig(k=2, n_stages=3, p=0.5)
    topology = config.build_topology()
    traffic = config.build_traffic(np.random.default_rng(0), topology, n_replicas=3)
    engine = ClockedEngine(topology, traffic)
    assert engine.n_replicas == 3
    assert engine.stats.count.size == 3 * config.n_stages
    assert engine.evaluator.n_ports == 3 * config.n_stages * topology.width
    with pytest.raises(ModelError, match="length-3"):
        NetworkTrafficGenerator(
            width=topology.width, p=[0.5, 0.5], service=config.service_model(),
            rng=np.random.default_rng(0), n_replicas=3,
        )


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
    tracker.record(ids, np.zeros(3, dtype=np.int64), np.array([1.0, 3.0, 2.0]))
    assert tracker.replica_tracker(0).complete_rows().ravel().tolist() == [1.0, 2.0]
    assert tracker.replica_tracker(1).complete_rows().ravel().tolist() == [3.0]


def test_elapsed_seconds_is_amortised():
    config = NetworkConfig(k=2, n_stages=3, p=0.5)
    results = run_batched(config, [1, 2, 3, 4], 1_500)
    per_replica = {r.elapsed_seconds for r in results}
    assert len(per_replica) == 1 and per_replica.pop() > 0
