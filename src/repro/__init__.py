"""repro: waiting times in clocked multistage interconnection networks.

A production-quality reproduction of Kruskal, Snir & Weiss, *The
Distribution of Waiting Times in Clocked Multistage Interconnection
Networks* (IEEE Trans. Computers 37(11), 1988; first presented 1986) --
the queueing analysis behind the NYU Ultracomputer and IBM RP3
interconnection networks.

Three layers:

* **exact analysis** (:mod:`repro.core`): Theorem 1's waiting-time
  transform evaluated with exact rational series algebra
  (:mod:`repro.series`) over pluggable traffic (:mod:`repro.arrivals`)
  and service (:mod:`repro.service`) models;
* **approximation** (:mod:`repro.core.later_stages`,
  :mod:`repro.core.total_delay`): the Section IV/V interpolations for
  later stages and network totals, with a gamma model of the full
  total-delay distribution;
* **simulation** (:mod:`repro.simulation`): a vectorised cycle-accurate
  simulator of buffered banyan networks used to validate all of the
  above, plus the experiment harness (:mod:`repro.analysis`)
  regenerating every table and figure of the paper.

Quick start::

    from repro import FirstStageQueue, UniformTraffic, DeterministicService
    q = FirstStageQueue(UniformTraffic(k=2, p=0.5), DeterministicService(1))
    q.waiting_mean()      # Fraction(1, 4) -- paper Eq. (6)
    q.waiting_pmf(10)     # the full distribution, Theorem 1
"""

from __future__ import annotations

from repro._version import __version__
from repro.arrivals import (
    ArrivalProcess,
    BulkUniformTraffic,
    CustomArrivals,
    FavoriteOutputTraffic,
    MarkovModulatedTraffic,
    RandomBulkTraffic,
    UniformTraffic,
)
from repro.core.convolution import ConvolutionTotalModel
from repro.core.finite_buffers import overflow_probability, suggested_capacity
from repro.core.heavy_traffic import heavy_traffic_coefficient, heavy_traffic_waiting
from repro.core.markov_queue import MMBPQueueAnalysis
from repro.core.distributions import GammaApproximant, TruncatedNormalApproximant
from repro.core.first_stage import FirstStageQueue
from repro.core.later_stages import InterpolationConstants, LaterStageModel, PAPER_CONSTANTS
from repro.core.total_delay import NetworkDelayModel
from repro.errors import ReproError
from repro.exec import (
    BatchResult,
    ExecutionContext,
    ExperimentSpec,
    ResultCache,
    run_many,
    use_execution,
)
from repro.obs import (
    EngineObserver,
    MetricsCollector,
    ObservationSession,
    PhaseTimers,
    WindowEvents,
    current_session,
    session,
)
from repro.series.pgf import PGF
from repro.service import (
    DeterministicService,
    GeneralService,
    GeometricService,
    MultiSizeService,
    ServiceProcess,
)
from repro.simulation import (
    NetworkConfig,
    NetworkResult,
    NetworkSimulator,
    simulate_first_stage_queue,
)

__all__ = [
    "__version__",
    "ReproError",
    "PGF",
    # arrivals
    "ArrivalProcess",
    "UniformTraffic",
    "BulkUniformTraffic",
    "RandomBulkTraffic",
    "FavoriteOutputTraffic",
    "CustomArrivals",
    "MarkovModulatedTraffic",
    # extensions (paper Section VI future work)
    "overflow_probability",
    "suggested_capacity",
    "heavy_traffic_coefficient",
    "heavy_traffic_waiting",
    "MMBPQueueAnalysis",
    "ConvolutionTotalModel",
    # service
    "ServiceProcess",
    "DeterministicService",
    "GeometricService",
    "MultiSizeService",
    "GeneralService",
    # analysis
    "FirstStageQueue",
    "LaterStageModel",
    "InterpolationConstants",
    "PAPER_CONSTANTS",
    "NetworkDelayModel",
    "GammaApproximant",
    "TruncatedNormalApproximant",
    # simulation
    "NetworkConfig",
    "NetworkResult",
    "NetworkSimulator",
    "simulate_first_stage_queue",
    # observability
    "EngineObserver",
    "WindowEvents",
    "MetricsCollector",
    "PhaseTimers",
    "ObservationSession",
    "session",
    "current_session",
    # execution (repro.exec)
    "ExperimentSpec",
    "BatchResult",
    "ResultCache",
    "ExecutionContext",
    "run_many",
    "use_execution",
]
