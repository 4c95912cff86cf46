"""Memory-bounded sharded execution of huge streamed batches.

Two layers live here:

* **Shard planning** -- :func:`estimate_replica_bytes` models a stacked
  engine's per-replica working set (queued messages, one drawn block of
  arrivals, tracker or streaming per-message scalars) and
  :func:`plan_shard_size` turns a byte budget into a replica count.
  The shard size is an *execution* knob: a replica's result does not
  depend on its shard, so it never enters a spec digest and the same
  cache entries serve every budget.
* **The direct driver** -- :func:`stream_totals` runs ``R`` replicas of
  one scenario in streaming summary mode (``track_limit=0``) without
  materialising specs, results, or cache entries: shards are dispatched
  to a process pool and their
  :class:`~repro.simulation.stats.StreamingTotals` merged in shard
  order, so peak memory is one shard's working set per worker while the
  merged moments are bit-identical to a monolithic run (shard
  invariance).  This is the R >= 1e5 path used by the scale benchmark
  and the figure overlays.

Spec-level sharded execution (cache-aware, per-spec results) is
``run_many(vectorize=True, shard_mem=...)`` in :mod:`repro.exec.runner`,
which plans its shards with the same functions.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, List, Optional

from repro.errors import ExecutionError
from repro.simulation.network import NetworkConfig
from repro.simulation.stats import StreamingTotals
from repro.simulation.streamed import (
    DEFAULT_SKETCH_MARKERS,
    DEFAULT_TAIL_K,
    run_streamed,
)
from repro.simulation.traffic import BLOCK_CYCLES

__all__ = [
    "DEFAULT_SHARD_MEM",
    "ShardedTotals",
    "estimate_replica_bytes",
    "plan_shard_size",
    "stream_totals",
]

#: Default per-shard byte budget (256 MiB): small enough that a handful
#: of pool workers fit comfortably in commodity memory, large enough
#: that shard dispatch overhead is noise.
DEFAULT_SHARD_MEM = 256 * 1024 * 1024

#: Queued-message allowance per port: 4 int64 fields for 64 messages.
_QUEUE_FIELDS = 4
_QUEUE_CAPACITY = 64


def estimate_replica_bytes(config: NetworkConfig, n_cycles: int) -> int:
    """Model of one replica's working set inside a stacked shard.

    Counts the dominant allocations: an allowance for queued messages,
    one drawn block of :data:`~repro.simulation.traffic.BLOCK_CYCLES`
    cycles of arrivals (six int64 rows per expected message), and
    either the tracker matrix (tracked mode: the rows a stacked engine
    allocates per replica, the most messages it can inject -- counted
    over all ``n_cycles``, warm-up included) or the per-message
    total/done/replica scalars (streaming mode).  A deliberate
    over-estimate is harmless (smaller shards); an under-estimate risks
    the memory budget, so deeper queues and the copies a block draw
    makes are absorbed by the x2 safety factor on the message-
    proportional terms.
    """
    topology = config.build_topology()
    ppr = topology.n_stages * topology.width
    rate = topology.width * config.p * config.bulk_size
    expected_msgs = max(1.0, n_cycles * rate)
    queue_bytes = ppr * _QUEUE_FIELDS * _QUEUE_CAPACITY * 8
    block_bytes = 6 * 8 * BLOCK_CYCLES * rate
    if config.track_limit > 0:
        rows = min(config.track_limit, topology.width * config.bulk_size * n_cycles)
        per_message = rows * topology.n_stages * 4
    else:
        per_message = expected_msgs * (8 + 1 + 8)  # total f64, done u8, replica i64
    return int(queue_bytes + 2.0 * (block_bytes + per_message))


def plan_shard_size(
    config: NetworkConfig, n_cycles: int, shard_mem: Optional[int]
) -> int:
    """Replicas per shard under a byte budget (always at least 1)."""
    if shard_mem is None:
        shard_mem = DEFAULT_SHARD_MEM
    if shard_mem < 1:
        raise ExecutionError(f"shard_mem must be >= 1 byte, got {shard_mem}")
    return max(1, shard_mem // estimate_replica_bytes(config, n_cycles))


@dataclass
class ShardedTotals:
    """Merged outcome of one sharded streaming run."""

    totals: StreamingTotals
    injected: int
    completed: int
    elapsed_seconds: float
    n_shards: int
    shard_size: int


def _run_totals_shard(
    config: NetworkConfig,
    seeds: List[int],
    n_cycles: int,
    warmup: Optional[int],
    n_markers: int,
    tail_k: int,
) -> tuple:
    """Worker-side shard executor (top-level, so it pickles)."""
    configs = [dataclasses.replace(config, seed=s) for s in seeds]
    batch = run_streamed(
        configs,
        n_cycles,
        warmup=warmup,
        n_markers=n_markers,
        tail_k=tail_k,
    )
    injected = sum(r.injected for r in batch.results)
    completed = sum(r.completed for r in batch.results)
    return batch.totals, injected, completed


def stream_totals(
    config: NetworkConfig,
    n_replications: int,
    n_cycles: int,
    *,
    warmup: Optional[int] = None,
    base_seed: int = 1000,
    shard_mem: Optional[int] = None,
    workers: int = 1,
    n_markers: int = DEFAULT_SKETCH_MARKERS,
    tail_k: int = DEFAULT_TAIL_K,
    progress: Optional[Callable[[dict], None]] = None,
) -> ShardedTotals:
    """Streaming totals of ``n_replications`` replicas of one scenario.

    Replica ``i`` runs ``config`` with seed ``base_seed + i`` in
    streaming summary mode; the batch is split into shards of
    :func:`plan_shard_size` replicas and the per-shard
    :class:`~repro.simulation.stats.StreamingTotals` merged in shard
    order.  Because every replica is shard-invariant and the
    merge concatenates per-replica accumulators in replica order, the
    result's exact statistics (count, moments, tail) are **independent
    of both ``shard_mem`` and ``workers``** -- only the quantile sketch
    is a per-shard approximation (merged within its grid bound).

    Memory stays bounded at one shard's working set per concurrent
    worker; nothing scales with ``n_replications`` except the
    per-replica moment accumulators (five floats each).
    """
    if n_replications < 1:
        raise ExecutionError(
            f"n_replications must be >= 1, got {n_replications}"
        )
    if workers < 1:
        raise ExecutionError(f"workers must be >= 1, got {workers}")
    cfg = dataclasses.replace(config, track_limit=0)
    shard_size = plan_shard_size(cfg, n_cycles, shard_mem)
    seeds = [base_seed + i for i in range(n_replications)]
    shards = [
        seeds[lo : lo + shard_size] for lo in range(0, len(seeds), shard_size)
    ]

    started = perf_counter()
    parts: List[tuple] = [()] * len(shards)
    if workers == 1 or len(shards) == 1:
        for j, shard_seeds in enumerate(shards):
            parts[j] = _run_totals_shard(
                cfg, shard_seeds, n_cycles, warmup, n_markers, tail_k
            )
            if progress is not None:
                progress({"event": "shard", "index": j, "n_shards": len(shards),
                          "replicas": len(shard_seeds)})
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(shards))) as pool:
            futures = {
                pool.submit(
                    _run_totals_shard,
                    cfg, shard_seeds, n_cycles, warmup, n_markers, tail_k,
                ): j
                for j, shard_seeds in enumerate(shards)
            }
            for fut, j in futures.items():
                parts[j] = fut.result()
                if progress is not None:
                    progress({"event": "shard", "index": j,
                              "n_shards": len(shards),
                              "replicas": len(shards[j])})

    merged = StreamingTotals.concat([p[0] for p in parts])
    return ShardedTotals(
        totals=merged,
        injected=sum(p[1] for p in parts),
        completed=sum(p[2] for p in parts),
        elapsed_seconds=perf_counter() - started,
        n_shards=len(shards),
        shard_size=shard_size,
    )
