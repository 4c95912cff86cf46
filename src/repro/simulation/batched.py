"""Replica-batched simulation: R independent runs in one set of arrays.

The paper's tables average many independent replications, and for its
small networks (``k = 2``, width 8--128) a per-cycle step is ~20 NumPy
kernel calls on tiny arrays -- per-call Python overhead dominates, so
running replicas one after another multiplies that overhead by ``R``.
:class:`BatchedClockedEngine` instead stacks ``R`` replicas into flat
arrays of ``R * n_stages * width`` ports (global port = ``replica *
n_stages * width + stage * width + line``) and evaluates all of them at
once.

Randomness
----------
One traffic generator draws a single ``(R, width)`` uniform block per
cycle; replicas consume disjoint slices of one shared stream, which
keeps them statistically independent.  The stream is seeded from the
*list* of per-replica seeds (``SeedSequence([s_0, ..., s_{R-1}])``),
so a batch's results are a pure function of the ordered seed list.
Because ``SeedSequence([s]) == SeedSequence(s)`` and in-place uniform
draws consume the stream exactly like allocating ones, a batch of
**one** replica reproduces the serial engine **bit-for-bit** -- this is
test-asserted.  For ``R > 1`` each replica's sample path depends on the
whole batch (still a valid i.i.d. replication design, just a different
one than ``R`` serial runs), which is why :mod:`repro.exec` marks
batched specs with a distinct cache digest.

Limitations (by construction)
-----------------------------
* Finite buffers are refused: neither backend models drops (both
  assume every push is stored).
* Observers/metrics collectors are not wired: no backend steps cycle by
  cycle.  Batched runs are *metrics-off*; run serially when you need
  instrumentation.
* ``warmup="auto"`` (MSER-5) is refused: the detector is a per-run
  pilot; pass an explicit warm-up instead.
* An engine runs once, from cycle 0, on a digit-routed topology: every
  random draw is made before the backend evaluates it.

Compute backends
----------------
The engine owns model *state* and draws the arrivals
(:meth:`BatchedClockedEngine._predraw_window`); a pluggable
:mod:`compute backend <repro.simulation.backends>` evaluates them.  The
default (``backend="auto"``) runs the JIT-compiled cycle loop when numba
is importable and the stage-wise NumPy pass
(:mod:`repro.simulation.stagewise`) otherwise; either way the results
are bit-identical (test-asserted), so backend choice is an execution
detail -- never part of a spec digest or cache key.
"""

from __future__ import annotations

from dataclasses import replace

# repro: lint-ok RPR001 -- elapsed_seconds bookkeeping; never enters results
from time import perf_counter
from typing import List, Literal, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.obs.profiling import PhaseTimers
from repro.simulation import stagewise
from repro.simulation.backends import ComputeBackend, resolve_backend
from repro.simulation.engine import build_routing_tables
from repro.simulation.network import NetworkConfig, NetworkResult
from repro.simulation.rng import DEFAULT_SEED, spawn_stacked_rngs
from repro.simulation.sanitize import (
    check_conservation,
    check_queue_depths,
    check_stage_stats,
    sanitizer_enabled,
)
from repro.simulation.stagewise import Hops
from repro.simulation.stats import BatchedTrackedMessages, StageAccumulator
from repro.simulation.switch import RingBufferQueues
from repro.simulation.topology import MultistageTopology
from repro.simulation.traffic import NetworkTrafficGenerator

__all__ = ["BatchedClockedEngine", "run_batched", "run_stacked"]

#: A backend request: a registry name (``"numpy"``/``"numba"``/
#: ``"auto"``) or a ready :class:`~repro.simulation.backends.ComputeBackend`.
BackendSpec = Union[str, ComputeBackend]

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


class BatchedClockedEngine:
    """``n_replicas`` identical networks in one set of stacked arrays.

    The engine owns the model *state* -- flat ``(replica, stage)``
    statistic bins, block-partitioned trackers, per-replica counters and
    per-port occupancy high-water marks -- and draws the arrivals; a
    compute backend evaluates them (see the module notes).  An engine
    runs once: :meth:`run` finalizes it.

    Parameters mirror the serial engine's; ``traffic`` must have been
    built with ``n_replicas`` matching (see
    :meth:`NetworkConfig.build_traffic`).
    """

    def __init__(
        self,
        topology: MultistageTopology,
        traffic: NetworkTrafficGenerator,
        n_replicas: int,
        transfer: Literal["cut_through", "store_forward"] = "cut_through",
        routing_rng: Optional[np.random.Generator] = None,
        track_limit: int = 200_000,
    ) -> None:
        if traffic.width != topology.width:
            raise SimulationError(
                f"traffic width {traffic.width} != topology width {topology.width}"
            )
        if traffic.n_replicas != n_replicas:
            raise SimulationError(
                f"traffic built for {traffic.n_replicas} replicas, engine "
                f"stacking {n_replicas}"
            )
        if transfer not in ("cut_through", "store_forward"):
            raise SimulationError(f"unknown transfer mode {transfer!r}")
        if n_replicas < 1:
            raise SimulationError(f"need >= 1 replica, got {n_replicas}")
        self.topology = topology
        self.traffic = traffic
        self.transfer = transfer
        self.routing_rng = routing_rng
        self.n_replicas = n_replicas
        self.width = topology.width
        self.n_stages = topology.n_stages
        self.ports_per_replica = self.n_stages * self.width
        self.n_ports = n_replicas * self.ports_per_replica
        fields = {
            "dest": np.int64,
            "service": np.int64,
            "arrival": np.int64,
            "track": np.int64,
        }
        # no backend pushes into these queues: they hold the high-water
        # marks a run records and the (empty) depths the sanitizer checks
        self.queues = RingBufferQueues(self.n_ports, fields, capacity=1)
        # flat (replica, stage) bins: bin = replica * n_stages + stage
        self.stats = StageAccumulator(n_replicas * self.n_stages)
        self.tracker = BatchedTrackedMessages(n_replicas, track_limit, self.n_stages)
        self.now = 0
        self.measure_from = 0
        self.completed = np.zeros(n_replicas, dtype=np.int64)
        self.injected = np.zeros(n_replicas, dtype=np.int64)
        #: messages buffered across all replicas when the run ended; the
        #: backend counts them, because they live in its own structures
        self.in_flight = 0
        self._perm_stack, self._shifts = build_routing_tables(topology)
        #: wall-clock phase timers (enable via :meth:`enable_profiling`);
        #: entries carry the backend that executed each phase
        self.timers: Optional[PhaseTimers] = None
        #: registry name of the backend the last :meth:`run` resolved to
        self.backend_name: Optional[str] = None

    def enable_profiling(self) -> PhaseTimers:
        """Start accumulating per-phase wall-clock timers."""
        if self.timers is None:
            self.timers = PhaseTimers()
        return self.timers

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def run(self, n_cycles: int, warmup: int = 0, backend: BackendSpec = "auto") -> None:
        """Simulate ``n_cycles`` from cycle 0; discard statistics before ``warmup``.

        ``backend`` names the executor (``"numpy"``, ``"numba"``, or
        ``"auto"``; see
        :func:`~repro.simulation.backends.resolve_backend`) or is a
        ready backend instance.  Results are backend-independent.  The
        run finalizes the engine; running it again raises.
        """
        if n_cycles < 1:
            raise SimulationError(f"n_cycles must be >= 1, got {n_cycles}")
        if not 0 <= warmup < n_cycles:
            raise SimulationError(f"warmup {warmup} outside [0, {n_cycles})")
        resolved = resolve_backend(backend, self)
        self.measure_from = warmup
        self.backend_name = resolved.name
        resolved.run(self, n_cycles, warmup)
        # the numpy pass checks at every window end when armed; this
        # end-of-run check is what covers the kernel (numba), whose loop
        # state is opaque until it returns
        if sanitizer_enabled():
            self.sanitize_state(self.now - 1)

    def _predraw_window(self, t0: int, end: int) -> Tuple[int, Hops]:
        """Draw the arrivals of the window of cycles opening at ``t0``.

        One ``generate_batch`` / ``entry_queue`` / ``allocate`` call per
        cycle, in cycle order, so every backend replays the same random
        streams and tracker slots; :attr:`injected` advances here.  The
        window closes after the cycle that brings it to
        :data:`~repro.simulation.stagewise.WINDOW_MESSAGES` messages, or
        at ``end``.  Returns its end cycle and its messages in injection
        order, each with its injection cycle as ``arrival``.
        """
        ppr = self.ports_per_replica
        buf = np.empty((len(Hops._fields), stagewise.WINDOW_MESSAGES + 64), dtype=np.int64)
        n = 0
        t = t0
        while t < end:
            arrivals = self.traffic.generate_batch()
            m = arrivals.sources.size
            if m:
                reps = arrivals.replicas
                self.injected += np.bincount(reps, minlength=self.n_replicas)
                lines = self.topology.entry_queue(
                    arrivals.sources, arrivals.destinations, self.routing_rng
                )
                if n + m > buf.shape[1]:
                    grow = max(m, buf.shape[1])
                    buf = np.concatenate([buf, np.empty((buf.shape[0], grow), np.int64)], axis=1)
                row = buf[:, n : n + m]
                row[0] = reps * ppr + lines
                row[1] = t
                row[2] = arrivals.destinations
                row[3] = arrivals.services
                if t >= self.measure_from:
                    row[4] = self.tracker.allocate(reps)
                else:
                    row[4] = -1
                n += m
            t += 1
            if n >= stagewise.WINDOW_MESSAGES:
                break
        return t, Hops(*buf[:, :n])

    def _finalize(self, n_cycles: int, in_flight: int, high_water: np.ndarray) -> None:
        """Close the run: the backend's queues are discarded, so keep their
        message count and per-port occupancy high-water marks."""
        self.now += n_cycles
        self.in_flight = in_flight
        self.queues.record_high_water(high_water)

    def sanitize_state(self, cycle: int) -> None:
        """Run the sanitizer invariant hooks against current state."""
        check_stage_stats(self.stats, cycle=cycle, n_stages=self.n_stages)
        check_queue_depths(
            self.queues.counts, cycle=cycle, ports_per_replica=self.ports_per_replica
        )
        check_conservation(
            int(self.injected.sum()),
            int(self.completed.sum()),
            self.in_flight,
            self.queues.dropped,
            cycle=cycle,
        )

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"BatchedClockedEngine(t={self.now}, replicas={self.n_replicas}, "
            f"stages={self.n_stages}, width={self.width}, "
            f"in_flight={self.in_flight})"
        )


def _build_stacked_engine(configs: Sequence[NetworkConfig]) -> BatchedClockedEngine:
    """A fresh stacked engine for ``configs`` (validated, seeded, t=0).

    Factored out of :func:`run_stacked` so backend tests can hold the
    engine itself; the shape validation and the per-scenario seeding
    (one ``SeedSequence`` over the ordered seed list) live here.
    """
    if not configs:
        raise SimulationError("need at least one scenario config")
    first = configs[0]
    for other in configs[1:]:
        for name in STACK_SHAPE_FIELDS:
            if getattr(other, name) != getattr(first, name):
                raise SimulationError(
                    "scenario stacking needs identical array shapes: "
                    f"{name}={getattr(other, name)!r} != {getattr(first, name)!r}"
                )
    if first.buffer_capacity is not None:
        raise SimulationError(
            "replica batching supports infinite buffers only; run finite-"
            "buffer scenarios serially"
        )
    if first.track_limit == 0:
        raise SimulationError(
            "track_limit=0 (streaming summary mode) is only supported by "
            "the streamed engine -- use repro.simulation.streamed."
            "run_streamed; see docs/scaling.md"
        )
    n_replicas = len(configs)
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
        n_replicas=n_replicas,
    )
    return BatchedClockedEngine(
        topology,
        traffic,
        n_replicas,
        transfer=first.transfer,
        routing_rng=routing_rng,
        track_limit=first.track_limit,
    )


def run_stacked(
    configs: Sequence[NetworkConfig],
    n_cycles: int,
    warmup: Optional[int] = None,
    backend: BackendSpec = "auto",
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
    ``elapsed_seconds`` is the batch wall clock divided by ``R`` (the
    amortised per-replica cost).

    A stack whose rows are identical except for the seed consumes the
    RNG stream exactly like the homogeneous batched engine (see
    :mod:`repro.simulation.traffic`), so :func:`run_batched` is this
    function applied to ``[replace(config, seed=s) for s in seeds]``
    and the R=1 serial bit-identity anchor carries over unchanged.

    ``backend`` selects the executor (default ``"auto"``: the JIT cycle
    loop when numba is importable, the stage-wise NumPy pass
    otherwise); every backend produces bit-identical results, and the
    one that actually ran is recorded on each
    :attr:`NetworkResult.backend <repro.simulation.network.NetworkResult.backend>`.

    Refuses finite buffers and ``warmup="auto"`` (see module notes).
    """
    configs = list(configs)
    engine = _build_stacked_engine(configs)
    first = configs[0]
    if warmup == "auto":
        raise SimulationError(
            'warmup="auto" is a per-run pilot; give an explicit warm-up '
            "for batched replicas"
        )
    if warmup is None:
        warmup = max(500, n_cycles // 10)
    warmup = int(warmup)
    if warmup >= n_cycles:
        raise SimulationError(f"warmup {warmup} >= n_cycles {n_cycles}")
    n_replicas = len(configs)
    started = perf_counter()
    engine.run(n_cycles, warmup=warmup, backend=backend)
    elapsed = perf_counter() - started

    S = first.n_stages
    means = engine.stats.means().reshape(n_replicas, S)
    variances = engine.stats.variances().reshape(n_replicas, S)
    counts = engine.stats.count.reshape(n_replicas, S)
    high_water = engine.queues.high_water().reshape(
        n_replicas, engine.ports_per_replica
    )
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
                tracked=engine.tracker.replica_tracker(i),
                injected=int(engine.injected[i]),
                completed=int(engine.completed[i]),
                dropped=0,
                max_occupancy=int(high_water[i].max()),
                elapsed_seconds=elapsed / n_replicas,
                backend=engine.backend_name or "numpy",
            )
        )
    return results


def run_batched(
    config: NetworkConfig,
    seeds: Sequence[Optional[int]],
    n_cycles: int,
    warmup: Optional[int] = None,
    backend: BackendSpec = "auto",
) -> List[NetworkResult]:
    """Run ``len(seeds)`` replicas of ``config`` in one stacked engine.

    The homogeneous special case of :func:`run_stacked`: every replica
    simulates the same scenario under its own seed.  Returns one
    :class:`NetworkResult` per seed, in order, each carrying ``config``
    with its own seed.  ``backend`` is forwarded to :func:`run_stacked`.

    Refuses finite buffers and ``warmup="auto"`` (see module notes).
    """
    if config.buffer_capacity is not None:
        raise SimulationError(
            "replica batching supports infinite buffers only; run finite-"
            "buffer scenarios serially"
        )
    if not seeds:
        raise SimulationError("need at least one replica seed")
    return run_stacked(
        [replace(config, seed=seed) for seed in seeds],
        n_cycles,
        warmup=warmup,
        backend=backend,
    )
