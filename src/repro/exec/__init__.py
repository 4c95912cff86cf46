"""repro.exec: parallel experiment execution with a result cache.

The shared substrate every sweep, table, figure, and replication study
runs on:

* **specs** (:mod:`repro.exec.spec`) -- declarative scenario
  descriptions with stable SHA-256 content digests;
* **runner** (:mod:`repro.exec.runner`) -- :func:`run_many` over a
  chunked process pool with deterministic per-position seed
  derivation, bounded retries, per-task timeouts, and partial-result
  reporting;
* **cache** (:mod:`repro.exec.cache`) -- digest-keyed on-disk results
  under ``.repro-cache/`` so repeated batches skip completed
  simulations;
* **context** (:mod:`repro.exec.context`) -- a process-wide
  :class:`ExecutionContext` (workers + cache) the analysis generators
  consult, mirroring :mod:`repro.obs.session`;
* **scenarios** (:mod:`repro.exec.scenarios`) -- the versioned YAML
  scenario library (``scenarios/*.yaml``) behind ``python -m repro
  batch`` and the :mod:`repro.api` service.

Determinism contract: for any batch, ``workers=N`` produces statistics
bit-identical to ``workers=1``, and a cached result is bit-identical to
a fresh one.  See ``docs/execution.md``.
"""

from __future__ import annotations

from repro.exec.cache import (
    CACHE_SCHEMA_VERSION,
    DEFAULT_CACHE_DIR,
    CacheStats,
    ResultCache,
    payload_to_result,
    result_to_payload,
)
from repro.exec.context import (
    ExecutionContext,
    current_execution,
    run_batch,
    simulate,
    use_execution,
)
from repro.exec.runner import (
    BatchResult,
    LocalPool,
    TaskOutcome,
    execute_spec,
    run_many,
)
from repro.exec.scenarios import (
    SCENARIO_SCHEMA_VERSION,
    ScenarioSet,
    available_scenario_sets,
    load_scenario_file,
    load_scenarios,
    scenario_dir,
    scenario_specs,
)
from repro.exec.sharded import (
    DEFAULT_SHARD_MEM,
    ShardedTotals,
    estimate_replica_bytes,
    plan_shard_size,
    stream_totals,
)
from repro.exec.spec import (
    SPEC_SCHEMA_VERSION,
    ExperimentSpec,
    group_by_shape,
    resolve_seeds,
    spec_from_jsonable,
    specs_from_file,
)

__all__ = [
    # spec
    "SPEC_SCHEMA_VERSION",
    "ExperimentSpec",
    "group_by_shape",
    "resolve_seeds",
    "spec_from_jsonable",
    "specs_from_file",
    # sharded
    "DEFAULT_SHARD_MEM",
    "ShardedTotals",
    "estimate_replica_bytes",
    "plan_shard_size",
    "stream_totals",
    # runner
    "BatchResult",
    "LocalPool",
    "TaskOutcome",
    "execute_spec",
    "run_many",
    # cache
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "CacheStats",
    "ResultCache",
    "payload_to_result",
    "result_to_payload",
    # context
    "ExecutionContext",
    "current_execution",
    "run_batch",
    "simulate",
    "use_execution",
    # scenarios
    "SCENARIO_SCHEMA_VERSION",
    "ScenarioSet",
    "available_scenario_sets",
    "load_scenario_file",
    "load_scenarios",
    "scenario_dir",
    "scenario_specs",
]
