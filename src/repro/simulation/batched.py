"""Stacked runs: R seeds of one scenario in one engine.

The paper's tables average independent replications of one scenario.
:func:`run_stacked` runs ``R`` of them -- one config under ``R`` seeds --
in one :class:`~repro.simulation.engine.ClockedEngine` of ``R``
replicas: flat arrays of ``R * n_stages * width`` ports (global port =
``replica * n_stages * width + stage * width + line``) and one stage-wise
pass (:mod:`repro.simulation.stagewise`) over all of them, window by
window.  A stack never mixes scenarios: configs that differ in any field
but the seed are refused.

Randomness
----------
Every replica draws from its own stream, ``spawn_rngs(seed, 1)[0]`` of its
own config -- exactly how a serial run is seeded -- in blocks of
:data:`~repro.simulation.traffic.BLOCK_CYCLES` cycles
(:mod:`repro.simulation.traffic`).  Replica dynamics are disjoint, so a
replica's :class:`~repro.simulation.network.NetworkResult` is a pure
function of its ``(config, n_cycles, warmup)``: the same as a serial
run of that config, at any position of any batch, in any shard
(test-asserted).  :func:`run_stacked`, :func:`run_batched` and
:func:`~repro.simulation.streamed.run_streamed` are entry points over
one driver, :func:`run_replicas`.

Limitations
-----------
* Finite buffers are refused (the serial engine takes them), and so is
  ``track_limit=0`` here: its batch totals come back from
  :func:`~repro.simulation.streamed.run_streamed`.
* Observers and metrics collectors are refused: they read one
  network's ports.  Run serially when you need instrumentation.
* ``warmup="auto"`` (MSER-5) is refused: the detector is a per-run
  pilot; pass an explicit warm-up instead.
"""

from __future__ import annotations

from dataclasses import fields, replace
from operator import attrgetter

# repro: lint-ok RPR001 -- elapsed_seconds bookkeeping; never enters results
from time import perf_counter
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.simulation.network import (
    NetworkConfig,
    NetworkResult,
    build_engine,
    default_warmup,
)
from repro.simulation.stagewise import StagewisePass
from repro.simulation.stats import (
    BatchedTrackedMessages,
    MessageTotals,
    StreamingTotals,
    TrackedMessages,
)

__all__ = ["run_batched", "run_replicas", "run_stacked"]

#: default quantile-sketch resolution / tail-reservoir size of a
#: streaming summary run (shared with the sharded exec driver)
DEFAULT_SKETCH_MARKERS = 129
DEFAULT_TAIL_K = 1024

#: every config field but the seed: the configs of one stack agree on all
_SCENARIO_FIELDS = tuple(f.name for f in fields(NetworkConfig) if f.name != "seed")
_scenario = attrgetter(*_SCENARIO_FIELDS)


def stack_warmup(
    configs: Sequence[NetworkConfig], n_cycles: int, warmup: Union[int, str, None]
) -> int:
    """Check that ``configs`` stack, and resolve the batch's warm-up.

    Stacked and streamed runs alike need at least one config, configs
    that differ in nothing but the seed, infinite buffers and an
    explicit warm-up; ``None`` means
    :func:`~repro.simulation.network.default_warmup`.
    """
    if not configs:
        raise SimulationError("need at least one scenario config")
    first = configs[0]
    scenario = _scenario(first)
    for other in configs[1:]:
        if _scenario(other) != scenario:
            diff = ", ".join(
                f"{name}={getattr(other, name)!r} != {getattr(first, name)!r}"
                for name in _SCENARIO_FIELDS
                if getattr(other, name) != getattr(first, name)
            )
            raise SimulationError(f"a stack holds seeds of one scenario: {diff}")
    if first.buffer_capacity is not None:
        raise SimulationError(
            "stacked replicas support infinite buffers only; run finite-"
            "buffer scenarios serially"
        )
    if warmup == "auto":
        raise SimulationError(
            'warmup="auto" is a per-run pilot; give an explicit warm-up '
            "for stacked replicas"
        )
    if warmup is None:
        warmup = default_warmup(n_cycles)
    warmup = int(warmup)
    if not 0 <= warmup < n_cycles:
        raise SimulationError(f"warmup {warmup} outside [0, {n_cycles})")
    return warmup


def replica_results(
    configs: Sequence[NetworkConfig],
    n_cycles: int,
    warmup: int,
    evaluator: StagewisePass,
    tracker: Union[TrackedMessages, BatchedTrackedMessages, MessageTotals],
    elapsed: float,
    totals: Optional[StreamingTotals] = None,
) -> List[NetworkResult]:
    """One :class:`NetworkResult` per config from a finished run of its
    replicas.

    ``evaluator`` holds the run's statistics and per-replica counters;
    ``tracker`` its tracked waits -- or, in streaming summary mode, its
    message totals, summarised in ``totals``.  ``elapsed_seconds`` is the run's wall clock divided by
    ``R`` (the amortised per-replica cost).
    """
    n_replicas = len(configs)
    n_stages = evaluator.n_stages
    means = evaluator.stats.means().reshape(n_replicas, n_stages)
    variances = evaluator.stats.variances().reshape(n_replicas, n_stages)
    counts = evaluator.stats.count.reshape(n_replicas, n_stages)
    max_occupancy = evaluator.high_water.reshape(n_replicas, -1).max(axis=1)
    results: List[NetworkResult] = []
    for i, config in enumerate(configs):
        results.append(
            NetworkResult(
                config=config,
                n_cycles=n_cycles,
                warmup=warmup,
                stage_means=means[i].copy(),
                stage_variances=variances[i].copy(),
                stage_counts=counts[i].copy(),
                tracked=(
                    tracker.replica_tracker(i)
                    if not isinstance(tracker, MessageTotals)
                    else TrackedMessages.from_rows(
                        np.empty((0, n_stages), dtype=np.float32), n_stages
                    )
                ),
                injected=int(evaluator.injected[i]),
                completed=int(evaluator.completed[i]),
                dropped=int(evaluator.dropped[i]),
                max_occupancy=int(max_occupancy[i]),
                elapsed_seconds=elapsed / n_replicas,
                totals_summary=(
                    totals.replica_summary(i) if totals is not None else None
                ),
            )
        )
    return results


def run_replicas(
    configs: Sequence[NetworkConfig],
    n_cycles: int,
    warmup: Union[int, str, None] = None,
    *,
    n_markers: int = DEFAULT_SKETCH_MARKERS,
    tail_k: int = DEFAULT_TAIL_K,
) -> Tuple[List[NetworkResult], Optional[StreamingTotals]]:
    """Run one replica per config in one engine: the stacked driver.

    Returns one result per config, in order, and -- in streaming
    summary mode (``track_limit=0``) -- the batch's merged
    :class:`~repro.simulation.stats.StreamingTotals` (``n_markers`` and
    ``tail_k`` size its sketch and tail), else ``None``.
    """
    configs = list(configs)
    warmup = stack_warmup(configs, n_cycles, warmup)
    engine = build_engine(configs, measured_cycles=n_cycles - warmup)
    tracker = engine.tracker
    started = perf_counter()
    engine.run(n_cycles, warmup=warmup)
    totals = None
    if isinstance(tracker, MessageTotals):
        totals = tracker.summary(n_markers, tail_k)
    results = replica_results(
        configs,
        n_cycles,
        warmup,
        engine.evaluator,
        tracker,
        perf_counter() - started,
        totals,
    )
    return results, totals


def run_stacked(
    configs: Sequence[NetworkConfig],
    n_cycles: int,
    warmup: Optional[int] = None,
) -> List[NetworkResult]:
    """Run ``len(configs)`` replicas in one stacked engine.

    The configs are seeds of one scenario: they may differ in ``seed``
    and nothing else.  Returns one :class:`NetworkResult` per config, in
    order, each carrying its own config and equal to a serial run of it
    -- the same schema serial runs produce, so downstream analysis and
    the result cache need no batch awareness.
    """
    configs = list(configs)
    if configs and configs[0].track_limit == 0:
        raise SimulationError(
            "track_limit=0 (streaming summary mode) is only supported by "
            "the streamed engine -- use repro.simulation.streamed."
            "run_streamed; see docs/scaling.md"
        )
    return run_replicas(configs, n_cycles, warmup)[0]


def run_batched(
    config: NetworkConfig,
    seeds: Sequence[Optional[int]],
    n_cycles: int,
    warmup: Optional[int] = None,
) -> List[NetworkResult]:
    """Run ``len(seeds)`` replicas of ``config`` in one stacked engine.

    :func:`run_stacked` over ``config`` under each seed.  Returns one
    :class:`NetworkResult` per seed, in order, each carrying ``config``
    with its own seed.
    """
    return run_stacked(
        [replace(config, seed=seed) for seed in seeds], n_cycles, warmup=warmup
    )
