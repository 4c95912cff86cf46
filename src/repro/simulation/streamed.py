"""Per-replica streamed engine: shard-invariant stacking for huge R.

The replica-batched engine (:mod:`repro.simulation.batched`) seeds one
shared RNG stream from the *whole* ordered batch, so every replica's
sample path depends on the batch composition -- correct, but it welds a
batch together: it cannot be split into memory-bounded shards without
changing every result.  This module trades that single stream for fully
independent replicas:

* each replica derives its own ``(traffic, routing)`` generators from
  its *own* seed via exactly the serial engine's derivation
  (:func:`~repro.simulation.rng.spawn_rngs`);
* each replica's arrivals are pre-drawn in one fixed canonical order
  (injection coins cycle-major, then destinations, favourite gate, bulk
  expansion, service samples -- O(1) RNG calls per replica);
* the pre-drawn replicas are then assembled into one stacked batch and
  evaluated exactly as a stacked run is: window by window by the
  stage-wise pass (:func:`~repro.simulation.engine.run_windows`), or in
  one call by the compiled cycle loop
  (:func:`~repro.simulation.backends.jit.run_kernel`).

Replica dynamics are disjoint -- each replica owns its block of ports --
so a replica's :class:`~repro.simulation.network.NetworkResult` is a
pure function of ``(config, n_cycles, warmup)``.  **Any sharding of a
batch therefore reproduces the monolithic run bit-for-bit**, which is
what lets :mod:`repro.exec` split million-replica batches across
workers under a byte budget (see ``docs/scaling.md``).

Streaming summary mode
----------------------
With ``track_limit=0`` the engine keeps no per-message stage matrix at
all: the kernel accumulates each measured message's *total* wait in a
per-message scalar and flips a completion flag at the last stage, and
the per-shard totals are reduced to a
:class:`~repro.simulation.stats.StreamingTotals` (exact per-replica
moments, a bounded quantile sketch, an exact top-k tail).  Memory per
shard is O(messages-in-shard); nothing scales with the full ``R``.
"""

from __future__ import annotations

from dataclasses import dataclass

# repro: lint-ok RPR001 -- elapsed_seconds bookkeeping; never enters results
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.simulation.backends.jit import Backend, resolve_kernel, run_kernel
from repro.simulation.batched import replica_results, stack_warmup
from repro.simulation.engine import build_routing_tables, run_windows
from repro.simulation.network import NetworkConfig, NetworkResult
from repro.simulation.rng import spawn_rngs
from repro.simulation.stagewise import Hops, Recorder, StagewisePass, window_end
from repro.simulation.stats import (
    BatchedTrackedMessages,
    StageAccumulator,
    StreamingTotals,
)

__all__ = ["StreamedBatch", "run_streamed"]

#: default quantile-sketch resolution / tail-reservoir size for
#: streaming summary mode (shared with the sharded exec driver)
DEFAULT_SKETCH_MARKERS = 129
DEFAULT_TAIL_K = 1024


@dataclass
class StreamedBatch:
    """Results of one streamed run (or one shard of a sharded run)."""

    #: one result per config, in order (same schema as ``run_stacked``)
    results: List[NetworkResult]
    #: merged streaming summary -- only in summary mode (``track_limit=0``)
    totals: Optional[StreamingTotals]


@dataclass
class _Predrawn:
    """One shard's assembled pre-drawn arrivals (cycle-major)."""

    offsets: np.ndarray  # (n_cycles + 1,) message index bounds per cycle
    #: every message, with its injection cycle as ``arrival`` and its
    #: tracker slot (its message id in streaming mode) as ``track``
    arrivals: Hops
    n_measured: int
    measured_reps: np.ndarray  # replica of each measured message, id order

    def window(self, t0: int, end: int) -> tuple:
        """The window of cycles opening at ``t0``, as
        :func:`~repro.simulation.engine.run_windows` draws it."""
        t1 = window_end(self.offsets, t0, end)
        lo, hi = int(self.offsets[t0]), int(self.offsets[t1])
        return t1, Hops(*(field[lo:hi] for field in self.arrivals)), None


def _predraw_replica(
    config: NetworkConfig, topology, n_cycles: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One replica's arrivals for all cycles, in the canonical order.

    Draw order (a fixed contract -- it defines the streamed engine's
    sample path): (1) one ``(n_cycles, width)`` uniform block of
    injection coins, (2) uniform destinations for the active slots in
    cycle-major order, (3) the favourite gate, (4) bulk expansion,
    (5) service samples.  Entry-queue assignment is digit-routed and
    consumes no RNG (enforced by the caller).
    """
    traffic_rng, routing_rng = spawn_rngs(config.seed, 2)
    service = config.service_model()
    u = traffic_rng.random((n_cycles, topology.width))
    cycles, sources = np.nonzero(u < config.p)
    dests = traffic_rng.integers(0, topology.destination_space, size=cycles.size)
    if config.q > 0:
        # favourite map is the identity permutation (input i's private
        # memory is output i), matching the serial traffic generator
        use_fav = traffic_rng.random(cycles.size) < config.q
        dests = np.where(use_fav, sources, dests)
    if config.bulk_size > 1:
        cycles = np.repeat(cycles, config.bulk_size)
        sources = np.repeat(sources, config.bulk_size)
        dests = np.repeat(dests, config.bulk_size)
    services = np.asarray(service.sample(traffic_rng, cycles.size), dtype=np.int64)
    lines = topology.entry_queue(sources, dests, routing_rng)
    return (
        cycles.astype(np.int64, copy=False),
        lines.astype(np.int64, copy=False),
        dests.astype(np.int64, copy=False),
        services,
    )


def _assemble(
    configs: Sequence[NetworkConfig],
    topology,
    n_cycles: int,
    warmup: int,
    tracker: Optional[BatchedTrackedMessages],
) -> _Predrawn:
    """Pre-draw every replica and merge into one cycle-major batch.

    Measured messages get ``tracker``'s slots, or -- with no tracker,
    in streaming summary mode -- consecutive message ids.
    """
    n_replicas = len(configs)
    ppr = topology.n_stages * topology.width
    per = [_predraw_replica(c, topology, n_cycles) for c in configs]
    sizes = np.array([p[0].size for p in per], dtype=np.int64)
    rep_of = np.repeat(np.arange(n_replicas, dtype=np.int64), sizes)
    cycles = np.concatenate([p[0] for p in per]) if per else np.empty(0, np.int64)
    lines = np.concatenate([p[1] for p in per])
    dests = np.concatenate([p[2] for p in per])
    services = np.concatenate([p[3] for p in per])

    # global cycle-major order; the stable sort keeps replica-major order
    # within a cycle and each replica's own injection order intact, so a
    # replica's slice of the batch is independent of its shard-mates
    order = np.argsort(cycles, kind="stable")
    cycles = cycles[order]
    rep_of = rep_of[order]
    lines = lines[order]
    dests = dests[order]
    services = services[order]

    offsets = np.zeros(n_cycles + 1, dtype=np.int64)
    np.cumsum(np.bincount(cycles, minlength=n_cycles), out=offsets[1:])

    measured = int(offsets[warmup])  # the first message injected at t >= warmup
    m_reps = rep_of[measured:]
    tracks = np.full(rep_of.size, -1, dtype=np.int64)
    if tracker is not None:
        # per-replica sequential slots in injection order -- shard-
        # invariant because a replica's injection order is its own
        tracks[measured:] = tracker.assign(m_reps, cycles[measured:])
    else:
        # streaming mode: every measured message gets a unique id into
        # the per-message total/done arrays
        tracks[measured:] = np.arange(m_reps.size)

    return _Predrawn(
        offsets=offsets,
        arrivals=Hops(rep_of * ppr + lines, cycles, dests, services, tracks),
        n_measured=int(m_reps.size),
        measured_reps=m_reps,
    )


def run_streamed(
    configs: Sequence[NetworkConfig],
    n_cycles: int,
    warmup: Optional[int] = None,
    backend: Backend = "auto",
    *,
    n_markers: int = DEFAULT_SKETCH_MARKERS,
    tail_k: int = DEFAULT_TAIL_K,
) -> StreamedBatch:
    """Run ``len(configs)`` scenarios with fully independent replicas.

    The shard-invariant sibling of
    :func:`~repro.simulation.batched.run_stacked`: results are
    bit-identical whether the configs run in one call or split across
    any number of calls (test-asserted), because each replica's draws
    come from its own seed only.  The price is a *different* sample
    path than ``run_stacked`` for the same seeds -- the two engines are
    distinct replication designs and carry distinct cache digests.

    Shape-fixing fields (:data:`~repro.simulation.batched.STACK_SHAPE_FIELDS`)
    must agree across the batch; finite buffers and coin-flip-routed
    topologies are refused (the pre-drawn loop needs digit routing).

    With ``track_limit == 0`` (streaming summary mode) the returned
    :class:`StreamedBatch` carries a merged
    :class:`~repro.simulation.stats.StreamingTotals` and each result a
    per-replica :class:`~repro.simulation.stats.TotalsSummary` instead
    of a per-message matrix.
    """
    configs = list(configs)
    warmup = stack_warmup(configs, n_cycles, warmup)
    first = configs[0]
    topology = first.build_topology()
    perm_stack, shifts = build_routing_tables(topology)
    kernel, backend_name = resolve_kernel(backend)

    n_replicas = len(configs)
    n_stages = first.n_stages
    streaming = first.track_limit == 0

    started = perf_counter()
    tracker = (
        None
        if streaming
        else BatchedTrackedMessages(n_replicas, first.track_limit, n_stages)
    )
    pre = _assemble(configs, topology, n_cycles, warmup, tracker)
    msg_total = np.zeros(max(pre.n_measured, 1) if streaming else 1, dtype=np.float64)
    msg_done = np.zeros(msg_total.size, dtype=np.uint8)
    evaluator = StagewisePass(
        perm_stack,
        shifts,
        topology.k,
        n_replicas,
        first.transfer == "cut_through",
        StageAccumulator(n_replicas * n_stages),
        (
            tracker.record
            if tracker is not None
            else _streaming_recorder(msg_total, msg_done, n_stages)
        ),
    )
    if kernel is None:
        run_windows(evaluator, n_cycles, warmup, pre.window)
    elif tracker is not None:
        run_kernel(kernel, evaluator, n_cycles, warmup, pre.arrivals, tracker.waits)
    else:
        no_rows = np.zeros((1, n_stages), dtype=np.float32)
        run_kernel(
            kernel, evaluator, n_cycles, warmup, pre.arrivals, no_rows, msg_total, msg_done
        )

    totals: Optional[StreamingTotals] = None
    if streaming:
        done = msg_done[: pre.n_measured].astype(bool)
        totals = StreamingTotals.from_totals(
            msg_total[: pre.n_measured][done],
            pre.measured_reps[done],
            n_replicas,
            n_markers=n_markers,
            tail_k=tail_k,
        )
    results = replica_results(
        configs,
        n_cycles,
        warmup,
        evaluator,
        tracker,
        perf_counter() - started,
        backend_name,
        totals,
    )
    return StreamedBatch(results=results, totals=totals)


def _streaming_recorder(
    msg_total: np.ndarray, msg_done: np.ndarray, n_stages: int
) -> Recorder:
    """Summary-mode sink: per-message total wait and completion flag."""

    def record(tids: np.ndarray, stages: np.ndarray, waits: np.ndarray) -> None:
        live = tids >= 0
        msg_total[tids[live]] += waits[live]
        msg_done[tids[live & (stages == n_stages - 1)]] = 1

    return record
