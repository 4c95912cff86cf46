"""One seeding contract: a spec's result does not depend on how it runs.

Every replica draws from its own config's streams in blocks of
``BLOCK_CYCLES`` cycles on a grid that starts at cycle 0, so a spec's
:class:`NetworkResult` is a function of its config, cycle budget and
warm-up alone.  Each case here runs one target spec through every route
the program offers -- a serial simulator, stacked batches with other
seeds of its scenario in another order, streamed shards of several
sizes, and ``run_many`` serially, vectorized and sharded -- and demands
the same result bit for bit; finite buffers and streaming summary mode
included.  Split runs must continue the sample path across block and run
boundaries.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.exec import sharded
from repro.exec.runner import run_many
from repro.exec.spec import ExperimentSpec
from repro.simulation import stagewise
from repro.simulation.batched import run_stacked
from repro.simulation.network import NetworkConfig, NetworkSimulator, build_engine
from repro.simulation.streamed import run_streamed
from repro.simulation.traffic import BLOCK_CYCLES

N_CYCLES = 700
WARMUP = 100

CUT_THROUGH = NetworkConfig(k=2, n_stages=3, p=0.5, topology="omega")
STORE_FORWARD = replace(CUT_THROUGH, transfer="store_forward")

CASES = {
    "uniform": replace(CUT_THROUGH, p=0.5, seed=11),
    "bulk": replace(CUT_THROUGH, p=0.25, bulk_size=2, seed=12),
    "favourite": replace(CUT_THROUGH, p=0.5, q=0.3, seed=13),
    "m4": replace(CUT_THROUGH, p=0.12, message_size=4, seed=14),
    "sizes": replace(CUT_THROUGH, p=0.3, sizes=(1, 3), probabilities=(0.6, 0.4), seed=15),
    "store-forward": replace(STORE_FORWARD, p=0.15, message_size=3, seed=16),
    "finite-buffers": replace(CUT_THROUGH, p=0.8, buffer_capacity=2, seed=17),
    "summary-mode": replace(CUT_THROUGH, p=0.5, track_limit=0, seed=18),
}


def companions(target: NetworkConfig) -> list:
    """Three stack-mates: seeds of the target's own scenario."""
    return [replace(target, seed=seed) for seed in (101, 102, 103)]


def fields(result) -> dict:
    return {
        "n_cycles": result.n_cycles,
        "warmup": result.warmup,
        "stage_means": result.stage_means.tolist(),
        "stage_variances": result.stage_variances.tolist(),
        "stage_counts": result.stage_counts.tolist(),
        "rows": result.tracked.complete_rows().tolist(),
        "injected": result.injected,
        "completed": result.completed,
        "dropped": result.dropped,
        "max_occupancy": result.max_occupancy,
        "totals_summary": result.totals_summary,
    }


@pytest.mark.parametrize("case", list(CASES))
def test_every_route_gives_one_result(case, monkeypatch):
    target = CASES[case]
    a, b, c = companions(target)
    expected = fields(NetworkSimulator(target).run(N_CYCLES, warmup=WARMUP))
    assert expected["injected"] > 0
    if target.buffer_capacity is not None:
        assert expected["dropped"] > 0
    if target.track_limit == 0:
        assert expected["totals_summary"].count > 0 and not expected["rows"]

    routes = {
        "stacked-first": run_stacked([target, a, b], N_CYCLES, warmup=WARMUP)[0],
        "stacked-last": run_stacked([c, b, target], N_CYCLES, warmup=WARMUP)[-1],
    }
    batch = [a, target, b, c]
    for size in (1, 2, len(batch)):
        results = [
            r
            for lo in range(0, len(batch), size)
            for r in run_streamed(batch[lo : lo + size], N_CYCLES, warmup=WARMUP).results
        ]
        routes[f"streamed-shards-of-{size}"] = results[1]
    specs = [ExperimentSpec(config, N_CYCLES, WARMUP) for config in batch]
    default = sharded.DEFAULT_SHARD_MEM
    for name, (vectorize, budget) in {
        "run_many-serial": (False, default),
        "run_many-vectorized": (True, default),
        # a one-byte budget gives shards of one spec
        "run_many-sharded": (True, 1),
    }.items():
        monkeypatch.setattr(sharded, "DEFAULT_SHARD_MEM", budget)
        outcome = run_many(specs, vectorize=vectorize).raise_on_failure().outcomes[1]
        assert outcome.spec.digest == specs[1].digest
        routes[name] = outcome.result
    for name, result in routes.items():
        assert fields(result) == expected, name


@pytest.mark.parametrize("window", [1, 50, stagewise.WINDOW_MESSAGES])
@pytest.mark.parametrize("n_replicas", [1, 3])
@pytest.mark.parametrize("first", [300, BLOCK_CYCLES, 100])
def test_split_run_continues_the_sample_path(first, n_replicas, window, monkeypatch):
    """``first + rest`` cycles in two runs are the 400 cycles of one run,
    whether the run boundary falls inside a block or on its edge."""
    monkeypatch.setattr(stagewise, "WINDOW_MESSAGES", window)
    configs = [replace(CASES["favourite"], seed=40 + r) for r in range(n_replicas)]
    split, whole = build_engine(configs), build_engine(configs)
    split.run(first, warmup=0)
    split.run(400 - first, warmup=0)
    whole.run(400, warmup=0)
    for name in ("count", "shift", "total", "total_sq"):
        assert np.array_equal(getattr(split.stats, name), getattr(whole.stats, name)), name
    for name in ("injected", "completed", "high_water", "free"):
        assert np.array_equal(
            getattr(split.evaluator, name), getattr(whole.evaluator, name)
        ), name
    for a, b in zip(split.evaluator.queued(), whole.evaluator.queued(), strict=True):
        assert np.array_equal(a, b)
    assert np.array_equal(split.tracker.waits, whole.tracker.waits)


class TestSortFallbacks:
    """The pass orders a stage's messages by port and its committed starts
    by cycle with radix sorts of ``uint16`` keys.  A stack of more than
    65 535 ports, or a window of 65 536 cycles or more, takes the stable
    comparison sort instead -- no workload does, so these runs do."""

    def test_a_window_of_100000_cycles(self, monkeypatch):
        config = NetworkConfig(k=2, n_stages=2, p=0.01, topology="omega", seed=21)
        windows = []
        advance = stagewise.StagewisePass.advance

        def counted(evaluator, end, *args):
            windows.append((evaluator.now, end))
            return advance(evaluator, end, *args)

        monkeypatch.setattr(stagewise.StagewisePass, "advance", counted)
        whole = fields(NetworkSimulator(config).run(100_000))
        assert windows == [(0, 100_000)]
        monkeypatch.setattr(stagewise, "WINDOW_MESSAGES", 300)
        windowed = fields(NetworkSimulator(config).run(100_000))
        assert len(windows) > 10
        assert windowed == whole

    def test_a_stack_of_65600_ports(self):
        configs = [
            NetworkConfig(k=2, n_stages=2, p=0.1, topology="omega", seed=seed)
            for seed in range(8_200)
        ]
        stacked = run_stacked(configs, 200, warmup=20)
        for replica in (0, 4_100, 8_199):
            serial = NetworkSimulator(configs[replica]).run(200, warmup=20)
            assert fields(stacked[replica]) == fields(serial), replica
