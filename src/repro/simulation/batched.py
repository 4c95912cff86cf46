"""Stacked runs: R independent scenarios in one engine.

The paper's tables average many independent replications, and for its
small networks (``k = 2``, width 8--128) per-call NumPy overhead
dominates, so running replicas one after another multiplies that
overhead by ``R``.  :func:`run_stacked` instead runs ``R`` scenarios in
one :class:`~repro.simulation.engine.ClockedEngine` of ``R`` replicas:
flat arrays of ``R * n_stages * width`` ports (global port = ``replica *
n_stages * width + stage * width + line``), one set of draws per cycle
for all of them, and one stage-wise pass (or one kernel call) over all
of them.

Randomness
----------
One traffic generator draws a single ``(R, width)`` uniform block per
cycle; replicas consume disjoint slices of one shared stream, which
keeps them statistically independent.  The stream is seeded from the
*list* of per-replica seeds (``SeedSequence([s_0, ..., s_{R-1}])``),
so a batch's results are a pure function of the ordered seed list.
Because ``SeedSequence([s]) == SeedSequence(s)`` and the engine draws a
serial run the same way, a batch of **one** replica reproduces the
serial engine **bit-for-bit** -- this is test-asserted.  For ``R > 1``
each replica's sample path depends on the whole batch (still a valid
i.i.d. replication design, just a different one than ``R`` serial
runs), which is why :mod:`repro.exec` marks batched specs with a
distinct cache digest.

Limitations
-----------
* Finite buffers and ``track_limit=0`` are refused (the streamed
  engine, :mod:`repro.simulation.streamed`, takes the latter).
* Observers and metrics collectors are refused: they read one
  network's ports.  Run serially when you need instrumentation.
* ``warmup="auto"`` (MSER-5) is refused: the detector is a per-run
  pilot; pass an explicit warm-up instead.

Backends
--------
``backend`` picks the evaluator
(:func:`~repro.simulation.backends.jit.resolve_kernel`): the stage-wise
NumPy pass (:mod:`repro.simulation.stagewise`) window by window, or the
compiled cycle loop over the whole run's pre-drawn arrivals.  The
default ``"auto"`` takes the compiled loop when numba is importable.
Either way the results are bit-identical (test-asserted), so backend
choice is an execution detail -- never part of a spec digest or cache
key.
"""

from __future__ import annotations

from dataclasses import replace

# repro: lint-ok RPR001 -- elapsed_seconds bookkeeping; never enters results
from time import perf_counter
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.errors import SimulationError
from repro.simulation.backends.jit import Backend, resolve_kernel, run_kernel
from repro.simulation.engine import ClockedEngine
from repro.simulation.network import NetworkConfig, NetworkResult
from repro.simulation.rng import DEFAULT_SEED, spawn_stacked_rngs
from repro.simulation.stagewise import StagewisePass
from repro.simulation.stats import (
    BatchedTrackedMessages,
    StreamingTotals,
    TrackedMessages,
)
from repro.simulation.traffic import NetworkTrafficGenerator

__all__ = ["run_batched", "run_stacked"]

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
    tracker: Union[TrackedMessages, BatchedTrackedMessages, None],
    elapsed: float,
    backend: str,
    totals: Optional[StreamingTotals] = None,
) -> List[NetworkResult]:
    """One :class:`NetworkResult` per config from a finished run of its
    replicas.

    ``evaluator`` holds the run's statistics and per-replica counters
    (whichever backend evaluated it); ``tracker`` its tracked waits, or
    ``None`` in streaming summary mode, where ``totals`` holds the
    per-replica summaries.  ``elapsed_seconds`` is the run's wall clock
    divided by ``R`` (the amortised per-replica cost).
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
                    if tracker is not None
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


def run_stacked(
    configs: Sequence[NetworkConfig],
    n_cycles: int,
    warmup: Optional[int] = None,
    backend: Backend = "auto",
) -> List[NetworkResult]:
    """Run ``len(configs)`` *scenarios* in one stacked engine.

    The scenario generalisation of :func:`run_batched`: each replica of
    the batch simulates its own :class:`NetworkConfig`, which may differ
    in arrival rate ``p``, bulk size, favourite bias ``q``, service
    model (``message_size`` / ``sizes`` / explicit ``service``), and
    seed -- anything that does not change the engine's array shapes.
    The shape-fixing fields (:data:`STACK_SHAPE_FIELDS`: ``k``,
    ``n_stages``, ``topology``, ``width``, ``transfer``,
    ``buffer_capacity``, ``track_limit``) must agree across the batch.

    Returns one :class:`NetworkResult` per config, in order, each
    carrying its own config -- the same schema serial runs produce, so
    downstream analysis and the result cache need no batch awareness.

    A stack whose rows are identical except for the seed consumes the
    RNG stream exactly like the homogeneous batched engine (see
    :mod:`repro.simulation.traffic`), so :func:`run_batched` is this
    function applied to ``[replace(config, seed=s) for s in seeds]``
    and the R=1 serial bit-identity anchor carries over unchanged.

    ``backend`` selects the evaluator (see the module notes); every
    backend produces bit-identical results, and the one that actually
    ran is recorded on each
    :attr:`NetworkResult.backend <repro.simulation.network.NetworkResult.backend>`.
    """
    configs = list(configs)
    warmup = stack_warmup(configs, n_cycles, warmup)
    first = configs[0]
    if first.track_limit == 0:
        raise SimulationError(
            "track_limit=0 (streaming summary mode) is only supported by "
            "the streamed engine -- use repro.simulation.streamed."
            "run_streamed; see docs/scaling.md"
        )
    kernel, backend_name = resolve_kernel(backend)
    entropy = [DEFAULT_SEED if c.seed is None else int(c.seed) for c in configs]
    traffic_rng, routing_rng = spawn_stacked_rngs(entropy)
    topology = first.build_topology()
    traffic = NetworkTrafficGenerator(
        width=topology.width,
        p=[c.p for c in configs],
        service=[c.service_model() for c in configs],
        rng=traffic_rng,
        bulk_size=[c.bulk_size for c in configs],
        q=[c.q for c in configs],
        dest_space=topology.destination_space,
        n_replicas=len(configs),
    )
    engine = ClockedEngine(
        topology,
        traffic,
        transfer=first.transfer,
        routing_rng=routing_rng,
        track_limit=first.track_limit,
    )
    started = perf_counter()
    if kernel is None:
        engine.run(n_cycles, warmup=warmup)
    else:
        arrivals = engine.predraw(n_cycles, warmup)
        run_kernel(
            kernel, engine.evaluator, n_cycles, warmup, arrivals, engine.tracker.waits
        )
    return replica_results(
        configs,
        n_cycles,
        warmup,
        engine.evaluator,
        engine.tracker,
        perf_counter() - started,
        backend_name,
    )


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
