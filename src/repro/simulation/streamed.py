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
  evaluated by the pre-drawn cycle-loop kernel the JIT backend uses, or
  on the NumPy path by the bit-identical stage-wise pass
  (:mod:`repro.simulation.stagewise`).

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
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.simulation.backends.jit import compiled_kernel
from repro.simulation.batched import STACK_SHAPE_FIELDS
from repro.simulation.engine import build_routing_tables
from repro.simulation.network import NetworkConfig, NetworkResult
from repro.simulation.rng import spawn_rngs
from repro.simulation.sanitize import check_stage_stats, sanitizer_enabled
from repro.simulation.stagewise import Hops, Recorder, StagewisePass, window_end
from repro.simulation.stats import (
    BatchedTrackedMessages,
    StageAccumulator,
    StreamingTotals,
    TrackedMessages,
)

__all__ = ["StreamedBatch", "run_streamed"]

#: backend selector: ``"auto"`` / ``"numpy"`` / ``"numba"``, or a cycle
#: loop kernel callable (the tests pass the interpreted kernel directly)
StreamBackend = Union[str, Callable[..., int]]

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

    offsets: np.ndarray   # (n_cycles + 1,) message index bounds per cycle
    ports: np.ndarray     # global port of each message's entry queue
    dests: np.ndarray
    services: np.ndarray
    tracks: np.ndarray    # tracker slot ids, or message ids in streaming mode
    rep_of: np.ndarray    # replica index of each message
    injected: np.ndarray  # (R,) arrivals per replica (warm-up included)
    measured_per_replica: np.ndarray  # (R,) messages injected at t >= warmup
    n_measured: int
    measured_reps: np.ndarray  # replica of each measured message, id order


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
    configs: Sequence[NetworkConfig], topology, n_cycles: int, warmup: int
) -> _Predrawn:
    """Pre-draw every replica and merge into one cycle-major batch."""
    n_replicas = len(configs)
    ppr = topology.n_stages * topology.width
    track_limit = configs[0].track_limit
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
    injected = np.bincount(rep_of, minlength=n_replicas)

    measured = cycles >= warmup
    m_reps = rep_of[measured]
    measured_per_replica = np.bincount(m_reps, minlength=n_replicas)
    tracks = np.full(rep_of.size, -1, dtype=np.int64)
    if track_limit > 0:
        # per-replica sequential tracker slots in injection order, capped
        # at the limit -- the same ids a replica-partitioned tracker
        # hands out, and shard-invariant because a replica's injection
        # order is its own
        ranks = np.empty(m_reps.size, dtype=np.int64)
        by_rep = np.argsort(m_reps, kind="stable")
        group_start = np.cumsum(measured_per_replica) - measured_per_replica
        ranks[by_rep] = np.arange(m_reps.size) - group_start[m_reps[by_rep]]
        tracks[measured] = np.where(
            ranks < track_limit, m_reps * track_limit + ranks, -1
        )
    else:
        # streaming mode: every measured message gets a unique id into
        # the per-message total/done arrays
        tracks[measured] = np.arange(m_reps.size)

    return _Predrawn(
        offsets=offsets,
        ports=rep_of * ppr + lines,
        dests=dests,
        services=services,
        tracks=tracks,
        rep_of=rep_of,
        injected=injected,
        measured_per_replica=measured_per_replica,
        n_measured=int(m_reps.size),
        measured_reps=m_reps,
    )


def _resolve_stream_kernel(
    backend: StreamBackend,
) -> Tuple[Optional[Callable[..., int]], str]:
    """``(kernel, name)`` for the requested backend, or numpy fallback.

    Returns ``(None, "numpy")`` for the vectorised reference path.
    ``backend`` may also be a callable kernel (the equivalence tests
    pass the interpreted :func:`cycle_loop_kernel` directly).
    """
    if callable(backend) and not isinstance(backend, str):
        return backend, "numba"
    if backend == "numpy":
        return None, "numpy"
    compiled = compiled_kernel()
    if backend == "numba":
        if compiled is None:
            raise SimulationError(
                "backend 'numba' requested but numba is not installed "
                "(pip install 'repro[numba]')"
            )
        return compiled, "numba"
    if backend == "auto":
        if compiled is not None:
            return compiled, "numba"
        return None, "numpy"
    raise SimulationError(
        f"unknown streamed backend {backend!r}: expected 'numpy', 'numba', "
        "'auto', or a kernel callable"
    )


def run_streamed(
    configs: Sequence[NetworkConfig],
    n_cycles: int,
    warmup: Optional[int] = None,
    backend: StreamBackend = "auto",
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
    if not configs:
        raise SimulationError("need at least one scenario config")
    first = configs[0]
    for other in configs[1:]:
        for name in STACK_SHAPE_FIELDS:
            if getattr(other, name) != getattr(first, name):
                raise SimulationError(
                    "streamed stacking needs identical array shapes: "
                    f"{name}={getattr(other, name)!r} != {getattr(first, name)!r}"
                )
    if first.buffer_capacity is not None:
        raise SimulationError(
            "the streamed engine supports infinite buffers only; run "
            "finite-buffer scenarios serially"
        )
    if warmup == "auto":
        raise SimulationError(
            'warmup="auto" is a per-run pilot; give an explicit warm-up '
            "for streamed replicas"
        )
    if warmup is None:
        warmup = max(500, n_cycles // 10)
    warmup = int(warmup)
    if not 0 <= warmup < n_cycles:
        raise SimulationError(f"warmup {warmup} outside [0, {n_cycles})")

    topology = first.build_topology()
    perm_stack, shifts = build_routing_tables(topology)
    if shifts is None:
        raise SimulationError(
            "topology routes without a digit table (routing_shifts() is "
            "None); the streamed engine pre-draws all randomness up front"
        )
    kernel, backend_name = _resolve_stream_kernel(backend)

    n_replicas = len(configs)
    n_stages = first.n_stages
    ppr = topology.n_stages * topology.width
    n_ports = n_replicas * ppr
    track_limit = first.track_limit
    streaming = track_limit == 0

    started = perf_counter()
    pre = _assemble(configs, topology, n_cycles, warmup)

    stats = StageAccumulator(n_replicas * n_stages)
    tracker = (
        BatchedTrackedMessages(n_replicas, track_limit, n_stages)
        if not streaming
        else None
    )
    msg_total = np.zeros(max(pre.n_measured, 1) if streaming else 1, dtype=np.float64)
    msg_done = np.zeros(msg_total.size, dtype=np.uint8)

    if kernel is not None:
        busy = np.zeros(n_ports, dtype=np.int64)
        completed = np.zeros(n_replicas, dtype=np.int64)
        high_water = np.zeros(n_ports, dtype=np.int64)
        kernel(
            n_cycles,
            warmup,
            n_ports,
            ppr,
            n_stages,
            topology.width,
            topology.k,
            first.transfer == "cut_through",
            pre.offsets,
            pre.ports,
            pre.dests,
            pre.services,
            pre.tracks,
            perm_stack.astype(np.int64, copy=False),
            shifts,
            busy,
            stats.count,
            stats.shift,
            stats.total,
            stats.total_sq,
            tracker.waits if tracker is not None else np.zeros((1, n_stages), np.float32),
            completed,
            high_water,
            streaming,
            msg_total,
            msg_done,
        )
        stats.refresh_unseen()
        if sanitizer_enabled():
            # the JIT loop's queue state is gone when it returns; the
            # moment bins and per-replica completion counts are what can
            # still be vouched for
            check_stage_stats(stats, cycle=n_cycles - 1, n_stages=n_stages)
    else:
        record = (
            tracker.record
            if tracker is not None
            else _streaming_recorder(msg_total, msg_done, n_stages)
        )
        evaluator = _run_stagewise(
            pre,
            perm_stack,
            shifts,
            topology.k,
            first.transfer == "cut_through",
            n_cycles,
            warmup,
            stats,
            record,
        )
        completed = evaluator.completed
        high_water = evaluator.high_water

    if tracker is not None:
        tracker._next = np.minimum(pre.measured_per_replica, track_limit)

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
    elapsed = perf_counter() - started

    means = stats.means().reshape(n_replicas, n_stages)
    variances = stats.variances().reshape(n_replicas, n_stages)
    counts = stats.count.reshape(n_replicas, n_stages)
    hw = high_water.reshape(n_replicas, ppr)
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
                injected=int(pre.injected[i]),
                completed=int(completed[i]),
                dropped=0,
                max_occupancy=int(hw[i].max()),
                elapsed_seconds=elapsed / n_replicas,
                backend=backend_name,
                totals_summary=(
                    totals.replica_summary(i) if totals is not None else None
                ),
            )
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


def _run_stagewise(
    pre: _Predrawn,
    perm_stack: np.ndarray,
    shifts: np.ndarray,
    k: int,
    cut_through: bool,
    n_cycles: int,
    warmup: int,
    stats: StageAccumulator,
    record: Recorder,
) -> StagewisePass:
    """The NumPy path: the stage-wise pass over the pre-drawn arrivals.

    Bit-identical to the kernel path (see
    :mod:`repro.simulation.stagewise`); with the sanitizer armed the pass
    checks its invariants at every window end.
    """
    n_replicas = pre.injected.size
    evaluator = StagewisePass(
        perm_stack,
        shifts,
        k,
        n_replicas,
        cut_through,
        stats,
        record,
        sanitize=sanitizer_enabled(),
    )
    t0 = 0
    while t0 < n_cycles:
        t1 = window_end(pre.offsets, t0, n_cycles)
        lo, hi = int(pre.offsets[t0]), int(pre.offsets[t1])
        arrival = np.repeat(
            np.arange(t0, t1, dtype=np.int64), np.diff(pre.offsets[t0 : t1 + 1])
        )
        evaluator.advance(
            t1,
            Hops(
                pre.ports[lo:hi],
                arrival,
                pre.dests[lo:hi],
                pre.services[lo:hi],
                pre.tracks[lo:hi],
            ),
            warmup,
        )
        t0 = t1
    return evaluator
