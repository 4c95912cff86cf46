"""User-facing facade: configure, run, and summarise a network simulation.

:class:`NetworkConfig` captures one experimental scenario in the
paper's vocabulary (``k``, ``p``, ``m``, ``q``, bulk size, stages);
:class:`NetworkSimulator` assembles topology + traffic + engine from it
and produces a :class:`NetworkResult` with exactly the statistics the
paper tabulates.

Width policy
------------
A true ``n``-stage banyan has ``k**n`` ports per stage.  For uniform
traffic the wiring is statistically irrelevant (each message takes an
independent uniform switch output at every stage), so deep networks may
be simulated at a fixed smaller ``width`` with
:class:`~repro.simulation.topology.RandomRoutingTopology` -- pass
``topology="random"`` and a ``width``.  Favourite-output traffic
(``q > 0``) genuinely needs destination routing and therefore a full
banyan.  The equivalence of the two modes is checked by the wiring
ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from numbers import Real
from typing import List, Literal, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError, SimulationError, TopologyError
from repro.obs.session import current_session
from repro.service.base import ServiceProcess, is_int
from repro.service.deterministic import DeterministicService
from repro.service.multisize import MultiSizeService, check_size_mix
from repro.simulation.engine import ClockedEngine
from repro.simulation.rng import spawn_rngs
from repro.simulation.stats import MessageTotals, StreamingTotals, TotalsSummary, TrackedMessages
from repro.simulation.topology import (
    BaselineTopology,
    ButterflyTopology,
    MultistageTopology,
    OmegaTopology,
    RandomRoutingTopology,
    check_shape,
)
from repro.simulation.traffic import NetworkTrafficGenerator, check_load

__all__ = [
    "MAX_PORTS",
    "NetworkConfig",
    "NetworkResult",
    "NetworkSimulator",
    "build_engine",
    "default_warmup",
    "summary_fields",
]

_TOPOLOGIES = {
    "omega": OmegaTopology,
    "butterfly": ButterflyTopology,
    "baseline": BaselineTopology,
}
_TRANSFERS = ("cut_through", "store_forward")

#: The most ports (``n_stages * width``) one replica may have: the engine
#: keeps several arrays of one entry per port, so a 30-stage banyan
#: (2**30 ports a stage) is refused where it is configured, not when a
#: job first tries to build it.
MAX_PORTS = 2**20


def default_warmup(n_cycles: int) -> int:
    """The warm-up of a run that names none: a tenth of it, at least 500
    cycles (so a run of ``n_cycles <= 500`` must name its own)."""
    return max(500, n_cycles // 10)


# The checks below run on every config made, dataclasses.replace included
# (10^4 times per streamed batch of 10^4 seeds): plain ints and floats
# take the exact-type test and skip the slower ABC isinstance checks.


def _check_int(name: str, value, minimum: int) -> None:
    if not is_int(value) or value < minimum:
        raise ModelError(f"{name} must be an int >= {minimum}, got {value!r}")


def _check_ports(k: int, n_stages: int, width: Optional[int]) -> None:
    """Refuse a network of more than :data:`MAX_PORTS` ports per replica.

    ``width`` defaults to ``k**n_stages``, which is formed only up to the
    limit: ``n_stages`` may be absurd.
    """
    shown = f"{k}**{n_stages}" if width is None else str(width)
    if width is None:
        width = 1
        for _ in range(min(n_stages, MAX_PORTS.bit_length())):
            width *= k
    if n_stages * width > MAX_PORTS:
        raise ModelError(
            f"{n_stages} stages of width {shown} exceed the {MAX_PORTS} ports a network may have"
        )


def _check_real(name: str, value) -> None:
    number = type(value) is float or is_int(value) or (
        isinstance(value, Real) and not isinstance(value, bool)
    )
    if not number or not isfinite(value):
        raise ModelError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class NetworkConfig:
    """One simulated scenario.

    Parameters
    ----------
    k:
        Switch degree (``k x k`` switches).
    n_stages:
        Network depth.
    p:
        Per-input message probability per cycle.
    message_size:
        Packets per message, transmitted consecutively (Section III-D
        constant service ``m``); exclusive with ``sizes``.
    sizes, probabilities:
        Multi-size mixture (Section III-D-2 / IV-C).
    service:
        Any explicit :class:`~repro.service.base.ServiceProcess`
        (e.g. geometric, Section III-B); exclusive with the size
        options above.
    bulk_size:
        Packets per *bulk* -- independent unit-service packets arriving
        together (Section III-A-2).  Exclusive with ``message_size > 1``.
    q:
        Favourite-output bias (Section III-A-3 / IV-D); needs a
        destination-routed topology.
    topology:
        ``"omega"`` (default), ``"butterfly"``, ``"baseline"``, or
        ``"random"`` (width-decoupled shuffle, uniform traffic only).
    width:
        Ports per stage; defaults to ``k**n_stages`` for banyans and is
        required for ``topology="random"``.
    transfer:
        ``"cut_through"`` (paper model) or ``"store_forward"``.
    buffer_capacity:
        ``None`` = infinite buffers (paper model); an int = finite
        FIFOs with drops.
    seed:
        Master seed (deterministic streams per subsystem).
    track_limit:
        Per-message rows kept for totals/correlations; ``0`` keeps each
        measured message's total wait instead, summarised in the
        result's ``totals_summary`` (streaming summary mode).
    """

    k: int
    n_stages: int
    p: float
    message_size: int = 1
    sizes: Optional[Tuple[int, ...]] = None
    probabilities: Optional[Tuple[float, ...]] = None
    service: Optional[ServiceProcess] = None
    bulk_size: int = 1
    q: float = 0.0
    topology: Literal["omega", "butterfly", "baseline", "random"] = "omega"
    width: Optional[int] = None
    transfer: Literal["cut_through", "store_forward"] = "cut_through"
    buffer_capacity: Optional[int] = None
    seed: Optional[int] = None
    track_limit: int = 200_000

    def __post_init__(self) -> None:
        # types and ranges first, without building anything: a config that
        # cannot run is refused here, not when a job first simulates it
        _check_int("k", self.k, 2)
        _check_int("n_stages", self.n_stages, 1)
        _check_real("p", self.p)
        _check_real("q", self.q)
        _check_int("bulk_size", self.bulk_size, 1)
        check_load(self.p, self.q, self.bulk_size)
        _check_int("message_size", self.message_size, 1)
        _check_int("track_limit", self.track_limit, 0)
        if self.buffer_capacity is not None:
            _check_int("buffer_capacity", self.buffer_capacity, 1)
        if self.seed is not None:
            _check_int("seed", self.seed, 0)
        if self.transfer not in _TRANSFERS:
            raise ModelError(f"unknown transfer mode {self.transfer!r}")
        random = self.topology == "random"
        if not random and self.topology not in _TOPOLOGIES:
            raise ModelError(f"unknown topology {self.topology!r}")
        if self.width is not None:
            _check_int("width", self.width, 1)
        try:
            check_shape(self.k, self.n_stages, self.width, "virtual" if random else "digits")
        except TopologyError as exc:
            raise ModelError(str(exc)) from None
        _check_ports(self.k, self.n_stages, self.width)
        if self.sizes is not None:
            if self.probabilities is None:
                raise ModelError("sizes need probabilities")
            object.__setattr__(self, "sizes", tuple(self.sizes))
            object.__setattr__(self, "probabilities", tuple(self.probabilities))
            for size in self.sizes:
                _check_int("sizes entry", size, 1)
            for prob in self.probabilities:
                _check_real("probabilities entry", prob)
            check_size_mix(self.sizes, self.probabilities)
            if self.message_size != 1:
                raise ModelError("give message_size or sizes, not both")
        if self.service is not None and (self.message_size != 1 or self.sizes is not None):
            raise ModelError("give an explicit service model or sizes, not both")
        if self.bulk_size > 1 and (self.message_size > 1 or self.sizes is not None):
            raise ModelError(
                "bulk arrivals (unit-service packets) and multi-packet messages "
                "are different models; pick one"
            )
        if self.q > 0 and random:
            raise ModelError("favourite-output traffic needs destination routing")

    # ------------------------------------------------------------------
    def service_model(self) -> ServiceProcess:
        """The service process implied by the message-size options.

        Precedence: an explicit ``service`` model, else a ``sizes``
        mixture, else ``DeterministicService(message_size)``.
        """
        if self.service is not None:
            return self.service
        if self.sizes is not None:
            return MultiSizeService(self.sizes, self.probabilities)
        return DeterministicService(self.message_size)

    def build_topology(self) -> MultistageTopology:
        """Instantiate the configured topology."""
        if self.topology == "random":
            if self.width is None:
                raise ModelError('topology="random" requires an explicit width')
            return RandomRoutingTopology(self.k, self.n_stages, self.width)
        cls = _TOPOLOGIES.get(self.topology)
        if cls is None:
            raise ModelError(f"unknown topology {self.topology!r}")
        return cls(self.k, self.n_stages, self.width)

    def build_traffic(
        self,
        rng: np.random.Generator,
        topology: Optional[MultistageTopology] = None,
    ) -> NetworkTrafficGenerator:
        """This scenario's traffic stream, drawing from ``rng``."""
        topology = self.build_topology() if topology is None else topology
        return NetworkTrafficGenerator(
            width=topology.width,
            p=self.p,
            service=self.service_model(),
            rng=rng,
            bulk_size=self.bulk_size,
            q=self.q,
            dest_space=topology.destination_space,
        )

    @property
    def traffic_intensity(self) -> float:
        """``rho`` = mean work per output-port cycle."""
        service = self.service_model()
        return self.p * self.bulk_size * float(service.mean)


def build_engine(
    configs: Sequence[NetworkConfig], measured_cycles: Optional[int] = None
) -> ClockedEngine:
    """One engine with a replica per config, each seeded from its own.

    Replica ``r`` draws its traffic from ``spawn_rngs(configs[r].seed,
    1)[0]`` -- how a serial run is seeded -- so its sample path is the
    same in any engine it shares; routing follows the destination
    digits and draws nothing.  The configs are seeds of one scenario
    (:func:`~repro.simulation.batched.stack_warmup` checks a stack's), so
    the first fixes the network shape, buffers and track limit.
    ``measured_cycles`` sizes a stack's tracker for one run (see
    :class:`ClockedEngine`).
    """
    first = configs[0]
    topology = first.build_topology()
    traffic: List[NetworkTrafficGenerator] = [
        config.build_traffic(spawn_rngs(config.seed, 1)[0], topology) for config in configs
    ]
    return ClockedEngine(
        topology,
        traffic,
        transfer=first.transfer,
        buffer_capacity=first.buffer_capacity,
        track_limit=first.track_limit,
        measured_cycles=measured_cycles,
    )


def summary_fields(
    totals: StreamingTotals, replica: int, n_stages: int
) -> Tuple[TrackedMessages, TotalsSummary]:
    """The ``tracked`` and ``totals_summary`` fields of one replica's
    result in streaming summary mode: an empty cohort (the run kept no
    rows) and the replica's moments from its run's ``totals``.  Serial
    and stacked runs both build their summary-mode results here."""
    empty = np.empty((0, n_stages), dtype=np.float32)
    return TrackedMessages.from_rows(empty, n_stages), totals.replica_summary(replica)


@dataclass
class NetworkResult:
    """Everything the paper reports about one run."""

    config: NetworkConfig
    n_cycles: int
    warmup: int
    stage_means: np.ndarray
    stage_variances: np.ndarray
    stage_counts: np.ndarray
    tracked: TrackedMessages = field(repr=False)
    injected: int = 0
    completed: int = 0
    dropped: int = 0
    max_occupancy: int = 0
    #: wall-clock seconds spent inside :meth:`NetworkSimulator.run`
    elapsed_seconds: float = 0.0
    #: engine phase timings (``PhaseTimers.as_dict``) when profiling was on
    timings: Optional[dict] = None
    #: manifest written for this run (observation session only)
    manifest_path: Optional[str] = None
    #: streaming summary of the total waiting times (``track_limit=0``
    #: runs only; ``None`` = per-message tracking)
    totals_summary: Optional[TotalsSummary] = None

    # -- totals ---------------------------------------------------------
    def total_waits(self) -> np.ndarray:
        """Total network waiting time per completed tracked message.

        Unavailable for streaming-summary runs (``track_limit=0``),
        which keep moments instead of per-message values -- use
        :meth:`total_waiting_mean` / :meth:`total_waiting_variance` or
        the batch-level :class:`~repro.simulation.stats.StreamingTotals`.
        """
        if self.totals_summary is not None:
            raise SimulationError(
                "per-message total waits were not stored (streaming summary "
                "mode, track_limit=0); use total_waiting_mean/_variance or "
                "the StreamingTotals sketch -- see docs/scaling.md"
            )
        return self.tracked.totals()

    def total_waiting_mean(self) -> float:
        """Sample mean of the total waiting time."""
        if self.totals_summary is not None:
            return self.totals_summary.mean
        return float(self.total_waits().mean())

    def total_waiting_variance(self) -> float:
        """Sample variance of the total waiting time."""
        if self.totals_summary is not None:
            return self.totals_summary.variance
        return float(self.total_waits().var(ddof=1))

    def stage_correlations(self) -> np.ndarray:
        """Stage-to-stage waiting-time correlation matrix (Table VI)."""
        return self.tracked.stage_correlations()

    def throughput(self) -> float:
        """Messages delivered per cycle network-wide."""
        return self.completed / self.n_cycles

    def summary(self) -> str:
        """Human-readable digest."""
        lines = [
            f"network: k={self.config.k} stages={self.config.n_stages} "
            f"p={self.config.p} rho={self.config.traffic_intensity:.3f}",
            f"cycles: {self.n_cycles} (warmup {self.warmup}); "
            f"injected {self.injected}, completed {self.completed}, "
            f"dropped {self.dropped}",
            "stage   mean wait   variance     samples",
        ]
        for i, (mu, var, n) in enumerate(
            zip(self.stage_means, self.stage_variances, self.stage_counts, strict=True), start=1
        ):
            lines.append(f"{i:5d}   {mu:9.4f}   {var:8.4f}   {n:9d}")
        return "\n".join(lines)


class NetworkSimulator:
    """Build and run one network scenario.

    Examples
    --------
    >>> cfg = NetworkConfig(k=2, n_stages=3, p=0.5, seed=7)
    >>> result = NetworkSimulator(cfg).run(n_cycles=2_000, warmup=500)
    >>> result.stage_means.shape
    (3,)
    """

    def __init__(self, config: NetworkConfig) -> None:
        self.config = config
        self.engine = build_engine([config])
        self.topology = self.engine.topology
        #: metrics collector attached by the active observation session
        #: (or by the user via :meth:`attach_metrics`); ``None`` = off
        self.metrics = None
        self._session = current_session()
        if self._session is not None:
            self.attach_metrics(self._session.new_collector())
            if self._session.profile:
                self.engine.enable_profiling()

    def attach_metrics(self, collector) -> None:
        """Attach a metrics collector observer to this simulator's engine."""
        self.metrics = collector
        self.engine.add_observer(collector)

    def run(self, n_cycles: int, warmup: Optional[object] = None) -> NetworkResult:
        """Simulate and summarise.

        ``warmup`` defaults to :func:`default_warmup` cycles whose
        observations are discarded; messages injected during warm-up are
        also excluded from the per-message (totals/correlations) panel.
        Pass ``warmup="auto"`` to detect the truncation point with
        MSER-5 on a pilot run (see :mod:`repro.simulation.warmup`).
        """
        if warmup == "auto":
            warmup = self._auto_warmup(n_cycles)
        if warmup is None:
            warmup = default_warmup(n_cycles)
        if warmup >= n_cycles:
            raise SimulationError(f"warmup {warmup} >= n_cycles {n_cycles}")
        # repro: lint-ok RPR001 -- elapsed_seconds bookkeeping; never enters results
        from time import perf_counter

        started = perf_counter()
        self.engine.run(n_cycles, warmup=int(warmup))
        elapsed = perf_counter() - started
        stats = self.engine.stats
        warmup = int(warmup)
        timers = self.engine.timers
        tracked, summary = self.engine.tracker, None
        if isinstance(tracked, MessageTotals):
            tracked, summary = summary_fields(tracked.summary(), 0, self.engine.n_stages)
        result = NetworkResult(
            config=self.config,
            n_cycles=n_cycles,
            warmup=warmup,
            stage_means=stats.means(),
            stage_variances=stats.variances(),
            stage_counts=stats.count.copy(),
            tracked=tracked,
            injected=self.engine.injected,
            completed=self.engine.completed,
            dropped=self.engine.dropped,
            max_occupancy=self.engine.max_occupancy,
            elapsed_seconds=elapsed,
            timings=timers.as_dict() if timers is not None else None,
            totals_summary=summary,
        )
        if self._session is not None:
            path = self._session.record_run(
                result,
                self.metrics,
                timings=result.timings,
                elapsed_seconds=elapsed,
            )
            result.manifest_path = str(path)
        return result

    def _auto_warmup(self, n_cycles: int) -> int:
        """MSER-5 truncation from a pilot run of a fresh twin simulator.

        The pilot records the per-cycle mean wait at the *last* stage
        (the slowest to reach spatial steady state) -- the cycle-to-cycle
        differences of a stride-1 metrics collector's running wait
        moments -- and applies the MSER-5 rule; the detected truncation
        is then used, with a small safety floor, as the main run's
        warm-up.
        """
        from repro.obs.metrics import MetricsCollector
        from repro.simulation.warmup import mser5_truncation

        pilot_cycles = max(1_000, min(n_cycles // 4, 10_000))
        twin = NetworkSimulator(self.config)
        probe = MetricsCollector(stride=1, capacity=pilot_cycles)
        twin.engine.add_observer(probe)
        twin.engine.run(pilot_cycles, warmup=0)
        moments = probe.series()
        sums = np.diff(moments["wait_sum"][:, -1], prepend=0.0)
        counts = np.diff(moments["wait_count"][:, -1], prepend=0).astype(float)
        with np.errstate(invalid="ignore", divide="ignore"):
            series = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
        detected = mser5_truncation(series)
        return min(max(detected, 100), n_cycles - 1)
