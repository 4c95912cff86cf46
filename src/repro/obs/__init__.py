"""Instrumentation subsystem: observers, metrics, manifests, profiling.

The measurement layer of the reproduction (see
``docs/observability.md``):

* :class:`~repro.obs.base.EngineObserver` -- the observer protocol:
  the engine hands every attached observer one
  :class:`~repro.obs.base.WindowEvents` per window of cycles (tracing,
  metrics, and user hooks coexist);
* :class:`~repro.obs.metrics.MetricsCollector` -- strided, ring-buffer
  bounded per-stage time series of queue depth, utilization, counts and
  running waiting-time moments;
* :mod:`~repro.obs.manifest` -- run manifests (JSON) and metrics export
  (JSONL) with a versioned, test-asserted schema;
* :mod:`~repro.obs.profiling` -- accumulating phase timers;
* :mod:`~repro.obs.session` -- process-wide observation sessions backing
  the ``--metrics-out`` CLI flag.
"""

from repro.obs.base import EngineObserver, Injections, StageEvents, WindowEvents
from repro.obs.manifest import (
    MANIFEST_REQUIRED_FIELDS,
    MANIFEST_SCHEMA_VERSION,
    METRICS_SCHEMA_VERSION,
    build_manifest,
    config_to_jsonable,
    git_revision,
    validate_manifest,
    validate_metrics_record,
    write_manifest,
    write_metrics_jsonl,
)
from repro.obs.metrics import METRICS_RECORD_FIELDS, MetricsCollector
from repro.obs.profiling import PhaseTimers
from repro.obs.session import ObservationSession, current_session, session

__all__ = [
    "EngineObserver",
    "WindowEvents",
    "StageEvents",
    "Injections",
    "MetricsCollector",
    "METRICS_RECORD_FIELDS",
    "PhaseTimers",
    "MANIFEST_SCHEMA_VERSION",
    "METRICS_SCHEMA_VERSION",
    "MANIFEST_REQUIRED_FIELDS",
    "build_manifest",
    "write_manifest",
    "write_metrics_jsonl",
    "validate_manifest",
    "validate_metrics_record",
    "config_to_jsonable",
    "git_revision",
    "ObservationSession",
    "session",
    "current_session",
]
