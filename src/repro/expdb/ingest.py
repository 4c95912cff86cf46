"""Ingestion bridges: batches, manifests, and BENCH artifacts -> ledger.

Three sources feed the experiment database, each already existing in
the repository before the ledger did:

* :func:`ingest_batch` -- the outcomes of one
  :func:`repro.exec.runner.run_many` call (wired in via
  ``run_many(..., db=...)``).  Records completed, cached, *and* failed
  tasks; the digest-keyed upsert means a retry that later succeeds
  overwrites its failure row.
* :func:`ingest_manifest` / :func:`ingest_session_dir` -- the
  ``run-NNNN.manifest.json`` documents an observation session writes
  (:mod:`repro.obs.manifest`).  The spec digest is reconstructed from
  the manifest's config + cycle budget, so a manifest-ingested run and
  a cache entry for the same scenario share a key (note: manifests
  carry the *resolved* warm-up, so their digests use it).
* :func:`ingest_bench_file` -- the ``BENCH_replicas.json`` /
  ``BENCH_sweep.json`` / ``BENCH_exec.json`` artifacts the perf
  benchmarks emit, fingerprinted by content so historical artifacts
  backfill the trajectory idempotently.

RPR001 discipline: nothing here reads the clock.  ``created_unix``
always arrives as an explicit argument (``run_many`` stamps its own
batches from :mod:`repro.exec`, the CLI stamps file ingests), and the
manifest's own ``created_unix`` rides along unchanged.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform as platform_mod
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple, Union

from repro._version import __version__
from repro.errors import ExperimentDBError
from repro.expdb.db import BenchRecord, ExperimentDB, RunRecord, canonical_json
from repro.obs.manifest import git_revision

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.exec.runner import BatchResult, TaskOutcome
    from repro.exec.spec import ExperimentSpec

__all__ = [
    "provenance",
    "spec_record_fields",
    "run_record_from_outcome",
    "ingest_outcome",
    "ingest_batch",
    "ingest_manifest",
    "ingest_session_dir",
    "ingest_bench_file",
    "bench_record_from_artifact",
]

#: Scenario columns denormalised from the config for selector queries.
_SCENARIO_COLUMNS = (
    "k",
    "n_stages",
    "p",
    "message_size",
    "q",
    "topology",
    "width",
    "buffer_capacity",
)

#: Key names (in priority order) holding the baseline / measured wall
#: times inside a BENCH artifact.  Covers the three shipped formats and
#: degrades gracefully for future ones (any other ``*_seconds`` pair).
_BASELINE_KEYS = ("serial_seconds", "per_load_batched_seconds", "numpy_seconds")
_MEASURED_KEYS = (
    "batched_seconds",
    "stacked_seconds",
    "parallel_seconds",
    "numba_seconds",
    "sharded_seconds",
)


def provenance() -> Dict[str, Optional[str]]:
    """Package/platform provenance for freshly-ingested rows."""
    try:
        import numpy

        numpy_version: Optional[str] = str(numpy.__version__)
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    return {
        "repro_version": __version__,
        "git_revision": git_revision(),
        "platform": platform_mod.platform(),
        "numpy_version": numpy_version,
    }


def _clean(value: Optional[float]) -> Optional[float]:
    """NaN/Inf -> None; everything stored must survive JSON export."""
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def _scenario_fields(config_doc: Mapping[str, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for name in _SCENARIO_COLUMNS:
        value = config_doc.get(name)
        if name in ("p", "q") and value is not None:
            # exotic rate types (e.g. a Fraction repr) stay queryable
            # through config_json; the selector column goes NULL
            value = float(value) if isinstance(value, (int, float)) else None
        out[name] = value
    return out


def spec_record_fields(spec: "ExperimentSpec") -> Dict[str, Any]:
    """The spec -> row conversion every ingestion surface shares.

    Digest-keyed identity columns (digest, seed, budget, canonical
    config JSON, digest family, denormalised scenario selectors) for
    one :class:`~repro.exec.spec.ExperimentSpec`.  Used by the batch
    path (:func:`run_record_from_outcome`, hence ``run_many(db=...)``
    and the :mod:`repro.api` service) and the manifest path
    (:func:`ingest_manifest`, hence ``db ingest --manifests``), so a
    run reaches identical identity columns no matter which surface
    recorded it.
    """
    config_doc = spec.identity()["config"]
    fields: Dict[str, Any] = {
        "digest": spec.digest,
        # the digest family: one since cache schema v2, whichever path
        # ran the spec (older ledgers also hold rows of three retired
        # batch families)
        "engine": "serial",
        "seed": spec.config.seed,
        "n_cycles": int(spec.n_cycles),
        "warmup": spec.warmup,
        "config_json": canonical_json(config_doc),
    }
    fields.update(_scenario_fields(config_doc))
    return fields


def run_record_from_outcome(
    outcome: "TaskOutcome",
    *,
    created_unix: Optional[float] = None,
    source: str = "exec",
) -> RunRecord:
    """Build the ledger row for one :class:`TaskOutcome`."""
    spec = outcome.spec
    result = outcome.result
    stage_means = stage_variances = stage_counts = None
    injected = completed = dropped = None
    throughput = total_mean = total_variance = None
    if result is not None:
        stage_means = json.dumps([_clean(v) for v in result.stage_means.tolist()])
        stage_variances = json.dumps(
            [_clean(v) for v in result.stage_variances.tolist()]
        )
        stage_counts = json.dumps([int(v) for v in result.stage_counts.tolist()])
        injected = int(result.injected)
        completed = int(result.completed)
        dropped = int(result.dropped)
        throughput = _clean(result.throughput())
        try:
            total_mean = _clean(result.total_waiting_mean())
            total_variance = _clean(result.total_waiting_variance())
        # repro: lint-ok RPR003 -- a run without a tracked cohort gets null totals
        except Exception:
            total_mean = total_variance = None
    prov = provenance()
    return RunRecord(
        label=spec.label,
        status=outcome.status,
        source=source,
        stage_means=stage_means,
        stage_variances=stage_variances,
        stage_counts=stage_counts,
        injected=injected,
        completed=completed,
        dropped=dropped,
        throughput=throughput,
        total_mean=total_mean,
        total_variance=total_variance,
        attempts=int(outcome.attempts),
        elapsed_seconds=float(outcome.elapsed_seconds),
        error=(outcome.error.strip().splitlines()[-1] if outcome.error else None),
        created_unix=created_unix,
        **spec_record_fields(spec),
        repro_version=prov["repro_version"],
        git_revision=prov["git_revision"],
        platform=prov["platform"],
        numpy_version=prov["numpy_version"],
    )


def ingest_outcome(
    db: ExperimentDB,
    outcome: "TaskOutcome",
    *,
    created_unix: Optional[float] = None,
    source: str = "exec",
) -> str:
    """Record one task outcome; returns its spec digest.

    The per-outcome surface shared by :func:`ingest_batch` and the
    simulation service (``python -m repro serve --db``, which records
    each job as it finishes with ``source="api"``).
    """
    record = run_record_from_outcome(
        outcome, created_unix=created_unix, source=source
    )
    db.record_run(record)
    return record.digest


def ingest_batch(
    db: ExperimentDB,
    batch: "BatchResult",
    *,
    created_unix: Optional[float] = None,
    source: str = "exec",
) -> int:
    """Record every outcome of one batch; returns the row count."""
    for outcome in batch.outcomes:
        ingest_outcome(db, outcome, created_unix=created_unix, source=source)
    return len(batch.outcomes)


# ----------------------------------------------------------------------
# manifests
# ----------------------------------------------------------------------

def ingest_manifest(
    db: ExperimentDB, manifest: Mapping[str, Any], *, source: str = "manifest"
) -> str:
    """Record one run manifest; returns the reconstructed spec digest.

    Raises :class:`~repro.errors.ExperimentDBError` for documents that
    are not run manifests or whose config cannot be rebuilt (e.g. an
    explicit service-model object that only survives as a ``repr``).
    """
    from repro.errors import ExecutionError
    from repro.exec.spec import spec_from_jsonable

    if manifest.get("kind") != "run":
        raise ExperimentDBError(
            f"not a run manifest (kind={manifest.get('kind')!r})"
        )
    try:
        spec = spec_from_jsonable(
            {
                "config": manifest["config"],
                "n_cycles": manifest["n_cycles"],
                "warmup": manifest["warmup"],
            }
        )
    except (ExecutionError, KeyError) as exc:
        raise ExperimentDBError(f"cannot rebuild spec from manifest: {exc}") from exc
    counts = manifest.get("counts", {})

    def _array(name: str) -> Optional[str]:
        value = manifest.get(name)
        if value is None:
            return None
        return json.dumps([_clean(v) for v in value])

    record = RunRecord(
        label=str(manifest.get("run_id", "")),
        status="completed",
        source=source,
        stage_means=_array("stage_means"),
        stage_variances=_array("stage_variances"),
        stage_counts=(
            json.dumps([int(v) for v in manifest["stage_counts"]])
            if manifest.get("stage_counts") is not None
            else None
        ),
        injected=counts.get("injected"),
        completed=counts.get("completed"),
        dropped=counts.get("dropped"),
        throughput=_clean(manifest.get("throughput")),
        elapsed_seconds=float(manifest.get("elapsed_seconds", 0.0)),
        timings_json=(
            canonical_json(manifest["timings"]) if manifest.get("timings") else None
        ),
        created_unix=_clean(manifest.get("created_unix")),
        **spec_record_fields(spec),
        repro_version=manifest.get("repro_version"),
        git_revision=manifest.get("git_revision"),
        platform=manifest.get("platform"),
        numpy_version=manifest.get("numpy_version"),
    )
    db.record_run(record)
    return spec.digest


def ingest_session_dir(
    db: ExperimentDB, directory: Union[str, Path]
) -> Tuple[int, int]:
    """Ingest every run manifest of one observation-session directory.

    Returns ``(ingested, skipped)``; non-run documents (replication /
    exec-batch indexes, metrics JSONL) and unreadable files are
    counted as skipped, never fatal -- a half-written session directory
    should still backfill what it can.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ExperimentDBError(f"{directory} is not a directory")
    ingested = skipped = 0
    for path in sorted(directory.glob("*.json")):
        try:
            manifest = json.loads(path.read_text())
            ingest_manifest(db, manifest)
            ingested += 1
        except (OSError, ValueError, ExperimentDBError):
            skipped += 1
    return ingested, skipped


# ----------------------------------------------------------------------
# BENCH artifacts
# ----------------------------------------------------------------------

def _first(artifact: Mapping[str, Any], keys: Tuple[str, ...]) -> Optional[float]:
    for key in keys:
        if key in artifact:
            return _clean(float(artifact[key]))
    return None


def bench_record_from_artifact(
    name: str,
    artifact: Mapping[str, Any],
    *,
    created_unix: Optional[float] = None,
) -> BenchRecord:
    """Build the ledger row for one BENCH artifact document.

    The fingerprint covers the series name plus the artifact content
    (not the ingestion time), so the same measurement ingested twice --
    or from two copies of the file -- lands on one row.
    """
    if not isinstance(artifact, Mapping) or "speedup" not in artifact:
        raise ExperimentDBError(
            f"BENCH artifact for {name!r} has no 'speedup' field"
        )
    content = canonical_json({"name": name, "artifact": artifact})
    fingerprint = hashlib.sha256(content.encode("utf-8")).hexdigest()
    baseline = _first(artifact, _BASELINE_KEYS)
    measured = _first(artifact, _MEASURED_KEYS)
    if baseline is None or measured is None:
        # future formats: any *_seconds pair, larger value as baseline
        seconds = sorted(
            float(v)
            for k, v in artifact.items()
            if k.endswith("_seconds") and isinstance(v, (int, float))
        )
        if len(seconds) >= 2:
            measured = measured if measured is not None else seconds[0]
            baseline = baseline if baseline is not None else seconds[-1]
    n_cycles = artifact.get("n_cycles")
    return BenchRecord(
        fingerprint=fingerprint,
        name=name,
        scenario=(str(artifact["scenario"]) if "scenario" in artifact else None),
        baseline_seconds=baseline,
        measured_seconds=measured,
        speedup=_clean(float(artifact["speedup"])),
        n_cycles=(int(n_cycles) if n_cycles is not None else None),
        detail_json=canonical_json(artifact),
        repro_version=__version__,
        git_revision=git_revision(),
        created_unix=created_unix,
    )


def _series_name(path: Path) -> str:
    """``BENCH_replicas.json`` -> ``replicas`` (fallback: the stem)."""
    stem = path.stem
    if stem.startswith("BENCH_"):
        return stem[len("BENCH_"):]
    return stem


def ingest_bench_file(
    db: ExperimentDB,
    path: Union[str, Path],
    *,
    name: Optional[str] = None,
    created_unix: Optional[float] = None,
) -> List[str]:
    """Ingest one ``BENCH_*.json`` artifact (or a JSON list of them).

    Returns the series names ingested.  The three shipped formats
    (``replicas``, ``sweep``, ``exec``) and any future single-object
    artifact with a ``speedup`` field are accepted.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ExperimentDBError(f"cannot read BENCH artifact {path}: {exc}") from exc
    series = name if name is not None else _series_name(path)
    artifacts = doc if isinstance(doc, list) else [doc]
    ingested: List[str] = []
    for artifact in artifacts:
        db.record_bench(
            bench_record_from_artifact(
                series, artifact, created_unix=created_unix
            )
        )
        ingested.append(series)
    return ingested
