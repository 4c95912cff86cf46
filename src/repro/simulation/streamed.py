"""Streamed runs: huge batches of independent replicas, shard by shard.

:func:`run_streamed` is the stacked driver
(:func:`~repro.simulation.batched.run_replicas`) for batches too large
to keep per-message results for.  Every replica draws from its own
streams in blocks of :data:`~repro.simulation.traffic.BLOCK_CYCLES`
cycles, so a replica's :class:`~repro.simulation.network.NetworkResult`
is a pure function of ``(config, n_cycles, warmup)``.  **Any sharding of
a batch therefore reproduces the monolithic run bit-for-bit**, which is
what lets :mod:`repro.exec` split million-replica batches across
workers under a byte budget (see ``docs/scaling.md``).

Streaming summary mode
----------------------
With ``track_limit=0`` the engine keeps no per-message stage matrix at
all: each measured message's *total* wait accumulates in one scalar,
flagged complete at the last stage
(:class:`~repro.simulation.stats.MessageTotals`), and the shard's
totals are reduced to a :class:`~repro.simulation.stats.StreamingTotals`
(exact per-replica moments, a bounded quantile sketch, an exact top-k
tail).  Memory per shard is O(messages-in-shard); nothing scales with
the full ``R``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.simulation.batched import (
    DEFAULT_SKETCH_MARKERS,
    DEFAULT_TAIL_K,
    run_replicas,
)
from repro.simulation.network import NetworkConfig, NetworkResult
from repro.simulation.stats import StreamingTotals

__all__ = ["DEFAULT_SKETCH_MARKERS", "DEFAULT_TAIL_K", "StreamedBatch", "run_streamed"]


@dataclass
class StreamedBatch:
    """Results of one streamed run (or one shard of a sharded run)."""

    #: one result per config, in order (same schema as ``run_stacked``)
    results: List[NetworkResult]
    #: merged streaming summary -- only in summary mode (``track_limit=0``)
    totals: Optional[StreamingTotals]


def run_streamed(
    configs: Sequence[NetworkConfig],
    n_cycles: int,
    warmup: Optional[int] = None,
    *,
    n_markers: int = DEFAULT_SKETCH_MARKERS,
    tail_k: int = DEFAULT_TAIL_K,
) -> StreamedBatch:
    """Run ``len(configs)`` seeds of one scenario as independent replicas.

    Results are bit-identical whether the configs run in one call or
    split across any number of calls, and equal to
    :func:`~repro.simulation.batched.run_stacked` and to serial runs of
    the same configs (test-asserted).

    The configs may differ in ``seed`` and nothing else; finite buffers
    are refused.

    With ``track_limit == 0`` (streaming summary mode) the returned
    :class:`StreamedBatch` carries a merged
    :class:`~repro.simulation.stats.StreamingTotals` and each result a
    per-replica :class:`~repro.simulation.stats.TotalsSummary` instead
    of a per-message matrix.
    """
    results, totals = run_replicas(
        configs, n_cycles, warmup, n_markers=n_markers, tail_k=tail_k
    )
    return StreamedBatch(results=results, totals=totals)
