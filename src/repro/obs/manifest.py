"""Run manifests: structured, reproducible records of simulation runs.

A *manifest* is one JSON document describing everything needed to
reproduce and audit a run: the full configuration, seed, package/git
version, cycle counts, wall-clock timings, and the summary statistics
the paper tabulates.  Next to it, the per-stage metrics time series
(see :class:`~repro.obs.metrics.MetricsCollector`) is exported as JSONL
-- one record per sample -- so a drifting table entry can be traced to
its queue-depth/utilization trajectory instead of a final aggregate.

Schema stability: both documents carry ``schema_version``; the field
sets below (:data:`MANIFEST_REQUIRED_FIELDS`,
:data:`~repro.obs.metrics.METRICS_RECORD_FIELDS`) are asserted by the
test suite and documented in ``docs/observability.md``.
"""

from __future__ import annotations

import dataclasses
import json
import platform as platform_mod
import subprocess
import time
from pathlib import Path
from typing import IO, Optional, Union

from repro._version import __version__
from repro.errors import SimulationError
from repro.obs.metrics import METRICS_RECORD_FIELDS, MetricsCollector

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "METRICS_SCHEMA_VERSION",
    "MANIFEST_REQUIRED_FIELDS",
    "MANIFEST_V2_FIELDS",
    "MANIFEST_V3_FIELDS",
    "git_revision",
    "config_to_jsonable",
    "build_manifest",
    "write_manifest",
    "write_metrics_jsonl",
    "validate_manifest",
    "validate_metrics_record",
]

#: v2 added the environment-provenance block (``platform``,
#: ``python_version``, ``numpy_version``) so a ledger row can answer
#: "which interpreter/BLAS produced this number".  v3 added ``backend``,
#: the evaluator of the run; every run is now evaluated by the
#: stage-wise NumPy pass, so it always reads ``"numpy"``.  Older
#: documents are still accepted by :func:`validate_manifest`.
MANIFEST_SCHEMA_VERSION = 3
METRICS_SCHEMA_VERSION = 1

#: Fields introduced at manifest schema v2 (absent from v1 documents).
MANIFEST_V2_FIELDS = (
    "platform",
    "python_version",
    "numpy_version",
)

#: Fields introduced at manifest schema v3 (absent from v1/v2 documents).
MANIFEST_V3_FIELDS = ("backend",)

#: Top-level keys every manifest must carry (asserted by tests).
MANIFEST_REQUIRED_FIELDS = (
    "schema_version",
    "kind",
    "run_id",
    "created_unix",
    "repro_version",
    "git_revision",
    "platform",
    "python_version",
    "numpy_version",
    "backend",
    "config",
    "n_cycles",
    "warmup",
    "elapsed_seconds",
    "timings",
    "counts",
    "stage_means",
    "stage_variances",
    "stage_counts",
    "throughput",
    "metrics_file",
)


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """The current git commit hash, or ``None`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def _numpy_version() -> Optional[str]:
    try:
        import numpy

        return str(numpy.__version__)
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        return None


def _jsonable(value):
    """Best-effort JSON-safe conversion (repr fallback for models)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    try:
        import numpy as np

        if isinstance(value, np.generic):
            return value.item()
        if isinstance(value, np.ndarray):
            return value.tolist()
    except ImportError:  # pragma: no cover
        pass
    return repr(value)


def config_to_jsonable(config) -> dict:
    """A :class:`~repro.simulation.network.NetworkConfig` as plain JSON.

    Non-serialisable members (an explicit ``ServiceProcess``) degrade
    to their ``repr`` -- enough to audit, if not to round-trip.
    """
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        raw = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    elif isinstance(config, dict):
        raw = dict(config)
    else:
        raise SimulationError(f"cannot serialise config of type {type(config).__name__}")
    return {k: _jsonable(v) for k, v in raw.items()}


def build_manifest(
    result,
    run_id: str,
    elapsed_seconds: float = 0.0,
    timings: Optional[dict] = None,
    metrics_file: Optional[str] = None,
    extra: Optional[dict] = None,
) -> dict:
    """Assemble the manifest dict for one finished run.

    ``result`` is a :class:`~repro.simulation.network.NetworkResult`;
    ``timings`` is a :meth:`PhaseTimers.as_dict` mapping (or ``None``);
    ``extra`` lets callers (e.g. the replication batch writer) attach
    context without a schema change.
    """
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kind": "run",
        "run_id": run_id,
        "created_unix": time.time(),
        "repro_version": __version__,
        "git_revision": git_revision(),
        "platform": platform_mod.platform(),
        "python_version": platform_mod.python_version(),
        "numpy_version": _numpy_version(),
        "backend": "numpy",
        "config": config_to_jsonable(result.config),
        "n_cycles": int(result.n_cycles),
        "warmup": int(result.warmup),
        "elapsed_seconds": float(elapsed_seconds),
        "timings": _jsonable(timings or {}),
        "counts": {
            "injected": int(result.injected),
            "completed": int(result.completed),
            "dropped": int(result.dropped),
            "max_occupancy": int(result.max_occupancy),
        },
        "stage_means": _jsonable(result.stage_means),
        "stage_variances": _jsonable(result.stage_variances),
        "stage_counts": _jsonable(result.stage_counts),
        "throughput": float(result.throughput()),
        "metrics_file": metrics_file,
    }
    if extra:
        manifest.update({str(k): _jsonable(v) for k, v in extra.items()})
    return manifest


def write_manifest(path: Union[str, Path], manifest: dict) -> Path:
    """Write one manifest as indented JSON; returns the path."""
    validate_manifest(manifest)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, allow_nan=False) + "\n")
    return path


def _finite(value):
    """NaN/Inf -> None so the JSONL stays strictly standard JSON."""
    if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
        return None
    if isinstance(value, list):
        return [_finite(v) for v in value]
    return value


def write_metrics_jsonl(
    target: Union[str, Path, IO[str]], collector: MetricsCollector
) -> Optional[Path]:
    """Export a collector's kept samples as JSONL (one record per line).

    The first line is a header record (``{"schema_version": ...,
    "kind": "metrics_header", ...}``); subsequent lines follow
    :data:`~repro.obs.metrics.METRICS_RECORD_FIELDS`.
    """
    header = {
        "schema_version": METRICS_SCHEMA_VERSION,
        "kind": "metrics_header",
        "stride": collector.stride,
        "capacity": collector.capacity,
        "samples": collector.n_samples,
        "samples_overwritten": collector.samples_overwritten,
        "fields": sorted(METRICS_RECORD_FIELDS),
    }

    def _dump(fh) -> None:
        fh.write(json.dumps(header) + "\n")
        for record in collector.records():
            fh.write(json.dumps({k: _finite(v) for k, v in record.items()}) + "\n")

    if hasattr(target, "write"):
        _dump(target)
        return None
    path = Path(target)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        _dump(fh)
    return path


def validate_manifest(manifest: dict) -> None:
    """Raise :class:`SimulationError` unless ``manifest`` fits the schema.

    Backward-compatible: v1 documents (written before the environment-
    provenance block) are accepted without the
    :data:`MANIFEST_V2_FIELDS`, and v1/v2 documents without the
    :data:`MANIFEST_V3_FIELDS`; anything newer than this package's
    schema, or missing its version's fields, is rejected.
    """
    version = manifest.get("schema_version")
    if not isinstance(version, int) or not 1 <= version <= MANIFEST_SCHEMA_VERSION:
        raise SimulationError(
            f"manifest schema_version {version!r} not in "
            f"1..{MANIFEST_SCHEMA_VERSION}"
        )
    required = MANIFEST_REQUIRED_FIELDS
    if version < 2:
        required = tuple(f for f in required if f not in MANIFEST_V2_FIELDS)
    if version < 3:
        required = tuple(f for f in required if f not in MANIFEST_V3_FIELDS)
    missing = [k for k in required if k not in manifest]
    if missing:
        raise SimulationError(f"manifest missing required fields: {missing}")


def validate_metrics_record(record: dict, n_stages: Optional[int] = None) -> None:
    """Raise :class:`SimulationError` unless one JSONL record fits the schema."""
    for name, typ in METRICS_RECORD_FIELDS.items():
        if name not in record:
            raise SimulationError(f"metrics record missing field {name!r}")
        if not isinstance(record[name], typ):
            raise SimulationError(
                f"metrics field {name!r} is {type(record[name]).__name__}, "
                f"expected {typ.__name__}"
            )
        if typ is list and n_stages is not None and len(record[name]) != n_stages:
            raise SimulationError(
                f"metrics field {name!r} has {len(record[name])} entries, "
                f"expected {n_stages} stages"
            )
