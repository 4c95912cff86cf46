"""Persistent experiment ledger for the Kruskal--Snir--Weiss reproduction.

``repro.expdb`` records every simulation run, benchmark measurement and
paper-target evaluation in a single SQLite file so that the repository's
claims -- "stage-one wait matches Table I", "stacked replicas run 5x
faster than serial ones" -- are backed by queryable history instead of
hand-edited markdown.

Layers:

* :mod:`repro.expdb.db` -- schema, migrations, corrupt-as-fresh open,
  digest-keyed idempotent upserts, deterministic export.
* :mod:`repro.expdb.ingest` -- adapters from the three producer
  surfaces: :func:`~repro.exec.runner.run_many` batches,
  :mod:`repro.obs` manifests/session directories, and the
  ``BENCH_*.json`` artifacts emitted by ``benchmarks/test_perf_*.py``.
* :mod:`repro.expdb.expectations` -- the paper's tables and figures as
  versioned machine-checkable targets with tolerance-based
  success/partial/failure classification and regression detection.
* :mod:`repro.expdb.report` -- the reproduction scorecard and the
  perf-trajectory report, rendered from DB rows alone.

The ledger never reads the wall clock: timestamps enter only through
explicit ``created_unix`` arguments supplied by the sanctioned timing
layers (:mod:`repro.exec`, the CLI), keeping the package clean under
lint rule RPR001.

CLI: ``python -m repro db {ingest,query,expectations,perf,export}``.
"""

from __future__ import annotations

from repro.expdb.db import (
    DEFAULT_DB_PATH,
    EXPDB_SCHEMA_VERSION,
    BenchRecord,
    EvalRecord,
    ExperimentDB,
    RunRecord,
    canonical_json,
)
from repro.expdb.expectations import (
    CLASSIFICATIONS,
    EXPECTATIONS_VERSION,
    PAPER_EXPECTATIONS,
    Expectation,
    ExpectationResult,
    classify,
    evaluate_expectations,
    find_regressions,
    record_evaluations,
)
from repro.expdb.ingest import (
    bench_record_from_artifact,
    ingest_batch,
    ingest_bench_file,
    ingest_manifest,
    ingest_outcome,
    ingest_session_dir,
    provenance,
    run_record_from_outcome,
    spec_record_fields,
)
from repro.expdb.report import (
    PERF_SPEEDUP_FLOORS,
    perf_regressions,
    render_expectations_markdown,
    render_perf_markdown,
    scorecard_counts,
)

__all__ = [
    "DEFAULT_DB_PATH",
    "EXPDB_SCHEMA_VERSION",
    "ExperimentDB",
    "RunRecord",
    "BenchRecord",
    "EvalRecord",
    "canonical_json",
    "CLASSIFICATIONS",
    "EXPECTATIONS_VERSION",
    "PAPER_EXPECTATIONS",
    "Expectation",
    "ExpectationResult",
    "classify",
    "evaluate_expectations",
    "find_regressions",
    "record_evaluations",
    "bench_record_from_artifact",
    "ingest_batch",
    "ingest_bench_file",
    "ingest_manifest",
    "ingest_outcome",
    "ingest_session_dir",
    "provenance",
    "run_record_from_outcome",
    "spec_record_fields",
    "PERF_SPEEDUP_FLOORS",
    "perf_regressions",
    "render_expectations_markdown",
    "render_perf_markdown",
    "scorecard_counts",
]
