"""Stacked runs: R independent scenarios in one engine.

The paper's tables average many independent replications, and for its
small networks (``k = 2``, width 8--128) per-call NumPy overhead
dominates, so running replicas one after another multiplies that
overhead by ``R``.  :func:`run_stacked` instead runs ``R`` scenarios in
one :class:`~repro.simulation.engine.ClockedEngine` of ``R`` replicas:
flat arrays of ``R * n_stages * width`` ports (global port = ``replica *
n_stages * width + stage * width + line``) and one stage-wise pass (or
one kernel call) over all of them.

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

Backends
--------
``backend`` picks the evaluator
(:func:`~repro.simulation.backends.jit.resolve_kernel`): the stage-wise
NumPy pass (:mod:`repro.simulation.stagewise`) window by window, or the
compiled cycle loop over the whole run's drawn arrivals.  The default
``"auto"`` takes the compiled loop when numba is importable.  Either way
the results are bit-identical (test-asserted), so backend choice is an
execution detail -- never part of a spec digest or cache key.
"""

from __future__ import annotations

from dataclasses import replace

# repro: lint-ok RPR001 -- elapsed_seconds bookkeeping; never enters results
from time import perf_counter
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.simulation.backends.jit import Backend, resolve_kernel, run_kernel
from repro.simulation.network import NetworkConfig, NetworkResult, build_engine
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

#: config fields that fix the stacked engine's array shapes -- scenarios
#: in one batch must agree on all of these (everything else may vary)
STACK_SHAPE_FIELDS = (
    "k",
    "n_stages",
    "topology",
    "width",
    "transfer",
    "buffer_capacity",
    "track_limit",
)


def stack_warmup(
    configs: Sequence[NetworkConfig], n_cycles: int, warmup: Union[int, str, None]
) -> int:
    """Check that ``configs`` stack, and resolve the batch's warm-up.

    Stacked and streamed runs alike need at least one config, identical
    :data:`STACK_SHAPE_FIELDS`, infinite buffers and an explicit
    warm-up; ``None`` means ``max(500, n_cycles // 10)`` cycles.
    """
    if not configs:
        raise SimulationError("need at least one scenario config")
    first = configs[0]
    for other in configs[1:]:
        for name in STACK_SHAPE_FIELDS:
            if getattr(other, name) != getattr(first, name):
                raise SimulationError(
                    "stacking needs identical array shapes: "
                    f"{name}={getattr(other, name)!r} != {getattr(first, name)!r}"
                )
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
        warmup = max(500, n_cycles // 10)
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
    backend: str,
    totals: Optional[StreamingTotals] = None,
) -> List[NetworkResult]:
    """One :class:`NetworkResult` per config from a finished run of its
    replicas.

    ``evaluator`` holds the run's statistics and per-replica counters
    (whichever backend evaluated it); ``tracker`` its tracked waits --
    or, in streaming summary mode, its message totals, summarised in
    ``totals``.  ``elapsed_seconds`` is the run's wall clock divided by
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
                backend=backend,
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
    backend: Backend = "auto",
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
    kernel, backend_name = resolve_kernel(backend)
    engine = build_engine(configs, measured_cycles=n_cycles - warmup)
    tracker = engine.tracker
    started = perf_counter()
    if kernel is None:
        engine.run(n_cycles, warmup=warmup)
    else:
        arrivals = engine.predraw(n_cycles, warmup)
        if isinstance(tracker, MessageTotals):
            no_rows = np.zeros((1, engine.n_stages), dtype=np.float32)
            run_kernel(
                kernel, engine.evaluator, n_cycles, warmup, arrivals, no_rows,
                tracker.total, tracker.done,
            )
        else:
            run_kernel(kernel, engine.evaluator, n_cycles, warmup, arrivals, tracker.waits)
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
        backend_name,
        totals,
    )
    return results, totals


def run_stacked(
    configs: Sequence[NetworkConfig],
    n_cycles: int,
    warmup: Optional[int] = None,
    backend: Backend = "auto",
) -> List[NetworkResult]:
    """Run ``len(configs)`` *scenarios* in one stacked engine.

    Each replica simulates its own :class:`NetworkConfig`, which may
    differ in arrival rate ``p``, bulk size, favourite bias ``q``,
    service model (``message_size`` / ``sizes`` / explicit ``service``),
    and seed -- anything that does not change the engine's array
    shapes.  The shape-fixing fields (:data:`STACK_SHAPE_FIELDS`: ``k``,
    ``n_stages``, ``topology``, ``width``, ``transfer``,
    ``buffer_capacity``, ``track_limit``) must agree across the batch.

    Returns one :class:`NetworkResult` per config, in order, each
    carrying its own config and equal to a serial run of it -- the same
    schema serial runs produce, so downstream analysis and the result
    cache need no batch awareness.

    ``backend`` selects the evaluator (see the module notes); every
    backend produces bit-identical results, and the one that actually
    ran is recorded on each
    :attr:`NetworkResult.backend <repro.simulation.network.NetworkResult.backend>`.
    """
    configs = list(configs)
    if configs and configs[0].track_limit == 0:
        raise SimulationError(
            "track_limit=0 (streaming summary mode) is only supported by "
            "the streamed engine -- use repro.simulation.streamed."
            "run_streamed; see docs/scaling.md"
        )
    return run_replicas(configs, n_cycles, warmup, backend)[0]


def run_batched(
    config: NetworkConfig,
    seeds: Sequence[Optional[int]],
    n_cycles: int,
    warmup: Optional[int] = None,
    backend: Backend = "auto",
) -> List[NetworkResult]:
    """Run ``len(seeds)`` replicas of ``config`` in one stacked engine.

    The homogeneous special case of :func:`run_stacked`: every replica
    simulates the same scenario under its own seed.  Returns one
    :class:`NetworkResult` per seed, in order, each carrying ``config``
    with its own seed.  ``backend`` is forwarded to :func:`run_stacked`.
    """
    return run_stacked(
        [replace(config, seed=seed) for seed in seeds],
        n_cycles,
        warmup=warmup,
        backend=backend,
    )
