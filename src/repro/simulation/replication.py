"""Independent-replication experiments.

A single long run gives one sample path; the paper's claims ("the
approximation is slightly low for small p") need error bars across
*independent* runs to be testable.  This module runs ``R`` replications
of a scenario under independent seed streams and aggregates any scalar
statistic with a Student-t confidence interval -- the cross-replication
complement to the within-run batch-means interval in
:mod:`repro.simulation.stats`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence

import numpy as np
from scipy import stats as sps

from repro.errors import SimulationError
from repro.obs.session import current_session
from repro.simulation.network import NetworkConfig, NetworkResult

__all__ = [
    "AdaptiveReplication",
    "ReplicatedStatistic",
    "replicate",
    "replicate_until",
    "replicated_statistic",
]


@dataclass(frozen=True)
class ReplicatedStatistic:
    """A scalar statistic aggregated across replications."""

    values: tuple
    confidence: float

    @property
    def n(self) -> int:
        """Number of replications."""
        return len(self.values)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        """Cross-replication standard deviation (ddof=1)."""
        return float(np.std(self.values, ddof=1))

    @property
    def half_width(self) -> float:
        """Student-t half width at the configured confidence.

        Requires ``n >= 2``: with one replication the interval has
        ``df = 0`` degrees of freedom (``t.ppf`` returns NaN) and no
        cross-replication variance exists.
        """
        if self.n < 2:
            raise SimulationError(
                f"a confidence interval needs at least 2 replications, got {self.n} "
                "(a single run has no cross-replication variance; df = n - 1 = 0)"
            )
        t = float(sps.t.ppf(0.5 + self.confidence / 2, df=self.n - 1))
        return t * self.std / self.n ** 0.5

    def interval(self) -> tuple:
        """``(low, high)`` confidence interval."""
        return (self.mean - self.half_width, self.mean + self.half_width)

    def covers(self, target: float) -> bool:
        """Whether the interval contains ``target``."""
        low, high = self.interval()
        return low <= target <= high

    def __str__(self) -> str:
        return f"{self.mean:.4f} +/- {self.half_width:.4f} (n={self.n})"


def replicate(
    config: NetworkConfig,
    n_replications: int,
    n_cycles: int,
    warmup=None,
    base_seed: int = 1000,
    workers: Optional[int] = None,
    vectorize: Optional[bool] = None,
) -> List[NetworkResult]:
    """Run ``n_replications`` independent copies of ``config``.

    Each replication gets seed ``base_seed + i`` (ignoring any seed in
    ``config``, which would silently correlate the runs), so the batch
    is deterministic and cacheable regardless of worker count.

    The batch goes through :func:`repro.exec.run_many`; ``workers``
    overrides the ambient :class:`~repro.exec.context.ExecutionContext`
    (default: serial, no cache -- identical to the historical inline
    loop).  ``vectorize=True`` runs the replications in stacked engines
    (:mod:`repro.simulation.batched`) instead of ``R`` serial ones, with
    the same results; metrics/manifests are then off (stacked runs are
    uninstrumented).  ``None`` defers to the ambient context.
    """
    if n_replications < 2:
        raise SimulationError("need at least 2 replications for an interval")
    if not isinstance(warmup, (int, type(None))):
        raise SimulationError(
            f"replicate() needs an integer warm-up (or None), got {warmup!r}"
        )
    from repro.exec.context import current_execution
    from repro.exec.runner import run_many
    from repro.exec.spec import ExperimentSpec

    ctx = current_execution()
    effective_workers = ctx.workers if workers is None else workers
    effective_vectorize = ctx.vectorize if vectorize is None else vectorize
    specs = [
        ExperimentSpec(
            config=replace(config, seed=base_seed + i),
            n_cycles=n_cycles,
            warmup=warmup,
            label=f"replication-{i}",
        )
        for i in range(n_replications)
    ]
    batch = run_many(
        specs,
        workers=effective_workers,
        cache=ctx.cache,
        retries=ctx.retries,
        timeout=ctx.timeout,
        vectorize=effective_vectorize,
    )
    batch.raise_on_failure()
    out = batch.results()
    session = current_session()
    if (
        session is not None
        and effective_workers == 1
        and batch.n_cached == 0
        and not effective_vectorize
    ):
        # tie the per-run manifests together as one reproducible batch
        # (run manifests only exist when the runs happened inline in
        # this process; parallel/cached batches are indexed by the
        # exec-batch manifest instead)
        session.record_batch(out)
    return out


@dataclass(frozen=True)
class AdaptiveReplication:
    """Outcome of :func:`replicate_until`."""

    #: the aggregated statistic over every replication actually run
    statistic: ReplicatedStatistic
    #: growth rounds taken (1 = the pilot already converged)
    rounds: int
    #: replications actually executed
    n_replications: int
    #: the half-width the caller asked for
    target_half_width: float
    #: whether the target was met (``False`` = ``r_max`` exhausted)
    converged: bool
    #: total engine cycles actually simulated across all rounds
    #: (cache-served replicas excluded) -- the work metric the
    #: early-stopping tests assert on
    engine_cycles: int

    @property
    def half_width(self) -> float:
        return self.statistic.half_width

    def __str__(self) -> str:
        state = "converged" if self.converged else "NOT converged"
        return (
            f"{self.statistic} [{state} to +/-{self.target_half_width:g} "
            f"in {self.rounds} round(s), {self.n_replications} replication(s)]"
        )


def replicate_until(
    config: NetworkConfig,
    statistic: Callable[[NetworkResult], float],
    target_half_width: float,
    n_cycles: int,
    *,
    warmup: Optional[int] = None,
    base_seed: int = 1000,
    confidence: float = 0.95,
    r0: int = 8,
    r_max: int = 4096,
    workers: Optional[int] = None,
    shard_mem: Optional[int] = None,
) -> AdaptiveReplication:
    """Grow replications until the t-interval is tight enough.

    Runs a pilot of ``r0`` replications (seeds ``base_seed + i``, the
    same derivation as :func:`replicate`), then repeatedly extends the
    sample until the Student-t half-width of ``statistic`` drops to
    ``target_half_width`` or ``r_max`` replications have run.  Each
    round's size combines a variance forecast
    ``n ~ (t * std / target)**2`` (the classical sequential
    fixed-width procedure) with a doubling floor, so low-variance scenarios
    stop after the pilot while noisy ones approach their forecast in
    O(log) rounds rather than creeping one replication at a time.

    Replications are executed through :func:`repro.exec.run_many` under
    the ambient :class:`~repro.exec.context.ExecutionContext` (its
    ``vectorize`` and ``shard_mem``; ``workers`` and ``shard_mem``
    override it; ``shard_mem`` implies stacked shards).  Every replica's
    result depends only on its own spec, so a grown round re-submits
    the earlier rounds' specs and the cache (when ambient) serves them;
    without a cache they are re-simulated, bit-identically.

    The early-stopping contract asserted by the tests: for a
    low-variance scenario, ``engine_cycles`` is strictly less than the
    fixed-``r_max`` budget, while the returned interval still covers
    the Theorem 1 prediction at every load.
    """
    if target_half_width <= 0:
        raise SimulationError(
            f"target_half_width must be > 0, got {target_half_width}"
        )
    if r0 < 2:
        raise SimulationError(f"pilot size r0 must be >= 2, got {r0}")
    if r_max < r0:
        raise SimulationError(f"r_max {r_max} < pilot size r0 {r0}")
    if not 0 < confidence < 1:
        raise SimulationError(f"confidence {confidence} outside (0, 1)")
    from repro.exec.context import current_execution
    from repro.exec.runner import run_many
    from repro.exec.spec import ExperimentSpec

    ctx = current_execution()
    effective_workers = ctx.workers if workers is None else workers
    effective_shard_mem = ctx.shard_mem if shard_mem is None else shard_mem

    def specs_for(count: int) -> list:
        return [
            ExperimentSpec(
                config=replace(config, seed=base_seed + i),
                n_cycles=n_cycles,
                warmup=warmup,
                label=f"replication-{i}",
            )
            for i in range(count)
        ]

    n = r0
    rounds = 0
    simulated = 0
    while True:
        rounds += 1
        batch = run_many(
            specs_for(n),
            workers=effective_workers,
            cache=ctx.cache,
            retries=ctx.retries,
            timeout=ctx.timeout,
            vectorize=ctx.vectorize,
            shard_mem=effective_shard_mem,
        )
        batch.raise_on_failure()
        simulated += batch.n_simulated
        agg = replicated_statistic(batch.results(), statistic, confidence)
        if agg.half_width <= target_half_width or n >= r_max:
            return AdaptiveReplication(
                statistic=agg,
                rounds=rounds,
                n_replications=n,
                target_half_width=target_half_width,
                converged=agg.half_width <= target_half_width,
                engine_cycles=simulated * n_cycles,
            )
        t = float(sps.t.ppf(0.5 + confidence / 2, df=n - 1))
        forecast = int(np.ceil((t * agg.std / target_half_width) ** 2))
        n = min(r_max, max(2 * n, forecast))


def replicated_statistic(
    results: Sequence[NetworkResult],
    statistic: Callable[[NetworkResult], float],
    confidence: float = 0.95,
) -> ReplicatedStatistic:
    """Aggregate ``statistic`` over replications with a t-interval."""
    if len(results) < 2:
        raise SimulationError("need at least 2 replications for an interval")
    if not 0 < confidence < 1:
        raise SimulationError(f"confidence {confidence} outside (0, 1)")
    values = tuple(float(statistic(r)) for r in results)
    return ReplicatedStatistic(values=values, confidence=confidence)
