"""Content-addressed on-disk cache of simulation results.

Layout (under the cache root, default ``.repro-cache/``)::

    .repro-cache/
      v2/                      # CACHE_SCHEMA_VERSION directory
        3f/                    # first two hex chars of the digest
          3f9a...e2.json       # metadata + scalar payload
          3f9a...e2.npz        # array payload (stage moments, cohort)

The ``.npz`` is written uncompressed (``np.savez``), and the tracked
cohort in the narrowest unsigned dtype that holds it exactly (uint8 or
uint16; float32 otherwise): waits are small integers, and zlib cost
more time than the bytes it saved.  :meth:`ResultCache.get` widens every
array to its payload dtype, so entries written compressed in float32
are served too.

Entries are keyed by :attr:`ExperimentSpec.digest
<repro.exec.spec.ExperimentSpec.digest>`, so any change to the config,
cycle budget, or warm-up policy is automatically a miss.  Bumping
:data:`CACHE_SCHEMA_VERSION` moves the layout to a fresh ``v{N}/``
directory *and* is re-checked inside each metadata document, so stale
entries can never be served after a format change.

What is cached is the *payload* -- exactly the information a worker
process ships back to the parent (:func:`result_to_payload`):
per-stage moment arrays, network-wide counters, and the completed
tracked cohort.  Rehydration (:func:`payload_to_result`) is therefore
identical for "fresh from a worker" and "read from disk", which is what
makes cached, serial, and parallel runs bit-for-bit interchangeable.

Writes go through a temp file + :func:`os.replace`, so concurrent
writers of the same digest race benignly (same content either way).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro._version import __version__
from repro.simulation.network import NetworkConfig, NetworkResult
from repro.simulation.stats import TotalsSummary, TrackedMessages

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "CacheStats",
    "InFlight",
    "ResultCache",
    "result_to_payload",
    "payload_to_result",
]

#: 2: every replica draws from its own streams in blocks of cycles, so
#: a spec's result is the same on every execution path -- and differs
#: from the sample path a v1 entry holds
CACHE_SCHEMA_VERSION = 2

#: Default cache root, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Scalar payload fields (stored in the JSON metadata document).
_SCALARS = (
    "n_cycles",
    "warmup",
    "injected",
    "completed",
    "dropped",
    "max_occupancy",
    "elapsed_seconds",
)

#: Array payload fields (stored in the NPZ sidecar) and the dtypes
#: :meth:`ResultCache.get` reads them back as.
_ARRAYS = {
    "stage_means": np.float64,
    "stage_variances": np.float64,
    "stage_counts": np.int64,
    "tracked_rows": np.float32,
}

#: Dtypes a cohort is narrowed to on disk, narrowest first.
_NARROW_DTYPES = (np.uint8, np.uint16)


def _narrowest(rows: np.ndarray) -> np.ndarray:
    """``rows`` (float32) in the narrowest unsigned dtype that gives every
    value back bit for bit, or unchanged when none does.

    A clocked network's waits are small non-negative integers, so a
    cohort usually fits in one or two bytes a value; a payload holding
    fractions, negatives, NaN or -0.0 (a custom task's) stays float32.
    """
    if rows.size == 0:
        return rows.astype(_NARROW_DTYPES[0])
    low, high = rows.min(), rows.max()
    if low >= 0:
        for dtype in _NARROW_DTYPES:
            if high <= np.iinfo(dtype).max:
                narrow = rows.astype(dtype)
                back = narrow.astype(np.float32)
                exact = np.array_equal(back.view(np.uint32), rows.view(np.uint32))
                return narrow if exact else rows
    return rows

#: Optional scalar fields carried only by streaming-summary results
#: (``track_limit=0``): the five :class:`TotalsSummary` scalars.  Old
#: cache entries simply lack them; new tracked-mode entries omit them,
#: so the on-disk format is unchanged for every pre-existing workload.
_TOTALS_SCALARS = (
    "totals_count",
    "totals_mean",
    "totals_m2",
    "totals_min",
    "totals_max",
)


def result_to_payload(result: NetworkResult) -> dict:
    """Flatten a result into plain scalars + arrays (IPC / disk form).

    The tracked cohort keeps only *complete* rows, in float32 exactly
    as the tracker stores them -- rehydrating through
    :meth:`TrackedMessages.from_rows` then reproduces ``totals()`` and
    ``stage_correlations()`` bit-for-bit.
    """
    rows = result.tracked.complete_rows().astype(np.float32)
    payload = {
        "n_cycles": int(result.n_cycles),
        "warmup": int(result.warmup),
        "injected": int(result.injected),
        "completed": int(result.completed),
        "dropped": int(result.dropped),
        "max_occupancy": int(result.max_occupancy),
        "elapsed_seconds": float(result.elapsed_seconds),
        "stage_means": np.asarray(result.stage_means, dtype=np.float64),
        "stage_variances": np.asarray(result.stage_variances, dtype=np.float64),
        "stage_counts": np.asarray(result.stage_counts, dtype=np.int64),
        "tracked_rows": rows,
    }
    summary = result.totals_summary
    if summary is not None:
        payload["totals_count"] = int(summary.count)
        payload["totals_mean"] = float(summary.mean)
        payload["totals_m2"] = float(summary.m2)
        payload["totals_min"] = float(summary.minimum)
        payload["totals_max"] = float(summary.maximum)
    return payload


def payload_to_result(payload: dict, config: NetworkConfig) -> NetworkResult:
    """Rebuild a :class:`NetworkResult` from its payload form."""
    stage_means = np.asarray(payload["stage_means"], dtype=np.float64)
    n_stages = stage_means.shape[0]
    tracked = TrackedMessages.from_rows(payload["tracked_rows"], n_stages)
    summary = None
    if "totals_count" in payload:
        summary = TotalsSummary(
            count=int(payload["totals_count"]),
            mean=float(payload["totals_mean"]),
            m2=float(payload["totals_m2"]),
            minimum=float(payload["totals_min"]),
            maximum=float(payload["totals_max"]),
        )
    return NetworkResult(
        config=config,
        n_cycles=int(payload["n_cycles"]),
        warmup=int(payload["warmup"]),
        stage_means=stage_means,
        stage_variances=np.asarray(payload["stage_variances"], dtype=np.float64),
        stage_counts=np.asarray(payload["stage_counts"], dtype=np.int64),
        tracked=tracked,
        injected=int(payload["injected"]),
        completed=int(payload["completed"]),
        dropped=int(payload["dropped"]),
        max_occupancy=int(payload["max_occupancy"]),
        elapsed_seconds=float(payload["elapsed_seconds"]),
        totals_summary=summary,
    )


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of cache contents plus this process's hit counters."""

    root: str
    schema_version: int
    entries: int
    total_bytes: int
    hits: int
    misses: int

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "schema_version": self.schema_version,
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "hits": self.hits,
            "misses": self.misses,
        }

    def to_text(self) -> str:
        mib = self.total_bytes / (1024 * 1024)
        return (
            f"cache {self.root} (schema v{self.schema_version}): "
            f"{self.entries} entries, {mib:.2f} MiB; "
            f"this process: {self.hits} hit(s), {self.misses} miss(es)"
        )


@dataclass(frozen=True)
class InFlight:
    """A claim on an in-progress computation (see ``get_or_begin``).

    ``leader`` is ``True`` for exactly one concurrent claimant per
    digest: that thread computes and must call
    :meth:`ResultCache.finish` (in a ``finally``) after storing the
    result.  Followers ``event.wait(timeout)`` and then re-``get``.
    """

    digest: str
    event: threading.Event
    leader: bool


class ResultCache:
    """Digest-keyed result store under one root directory.

    ``get``/``put`` never raise on cache trouble: a corrupt, partial,
    or stale entry is simply a miss (and a run is never *wrong* because
    of the cache -- at worst it is re-simulated).
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        #: process-local counters, reported by :meth:`stats`
        self.hits = 0
        self.misses = 0
        #: in-process in-flight registry: digest -> completion event
        self._inflight: Dict[str, threading.Event] = {}
        self._inflight_lock = threading.Lock()

    def _entry_paths(self, digest: str) -> tuple:
        base = self.root / f"v{CACHE_SCHEMA_VERSION}" / digest[:2]
        return base / f"{digest}.json", base / f"{digest}.npz"

    # ------------------------------------------------------------------
    def get(self, spec) -> Optional[NetworkResult]:
        """The cached result for ``spec``, or ``None`` on any miss."""
        digest = spec.digest
        meta_path, npz_path = self._entry_paths(digest)
        try:
            meta = json.loads(meta_path.read_text())
            if (
                meta.get("schema_version") != CACHE_SCHEMA_VERSION
                or meta.get("digest") != digest
            ):
                raise ValueError("stale or mismatched cache entry")
            payload = dict(meta["payload"])
            with np.load(npz_path) as data:
                for name, dtype in _ARRAYS.items():
                    payload[name] = np.asarray(data[name], dtype=dtype)
            result = payload_to_result(payload, spec.config)
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def get_or_begin(self, spec) -> Tuple[Optional[NetworkResult], Optional[InFlight]]:
        """Cache lookup that deduplicates concurrent identical misses.

        Returns ``(result, None)`` on a hit.  On a miss, exactly one
        concurrent caller per digest receives a *leader* token
        (``InFlight.leader`` true) and should compute, :meth:`put`, and
        :meth:`finish` -- ``finish`` in a ``finally``, so a crashed
        leader releases its claim.  Every other concurrent caller
        receives a *follower* token: ``token.event.wait(timeout)`` then
        re-:meth:`get` (a miss after the wait means the leader failed;
        the follower should compute for itself).

        The registry is in-process (``threading.Event`` keyed by
        digest): it serves threaded callers such as the
        :mod:`repro.api` job manager, not separate processes -- those
        still race benignly through the atomic on-disk writes.
        """
        result = self.get(spec)
        if result is not None:
            return result, None
        digest = spec.digest
        with self._inflight_lock:
            event = self._inflight.get(digest)
            if event is not None:
                return None, InFlight(digest=digest, event=event, leader=False)
            event = threading.Event()
            self._inflight[digest] = event
            return None, InFlight(digest=digest, event=event, leader=True)

    def finish(self, spec) -> None:
        """Release a leader claim taken by :meth:`get_or_begin`.

        Wakes every follower waiting on the digest.  Idempotent; a
        digest with no claim is a no-op.
        """
        with self._inflight_lock:
            event = self._inflight.pop(spec.digest, None)
        if event is not None:
            event.set()

    def put(self, spec, result: Union[NetworkResult, dict]) -> None:
        """Store a result (or its payload form) under ``spec``'s digest."""
        payload = result_to_payload(result) if isinstance(result, NetworkResult) else result
        digest = spec.digest
        meta_path, npz_path = self._entry_paths(digest)
        meta_path.parent.mkdir(parents=True, exist_ok=True)
        meta = {
            "schema_version": CACHE_SCHEMA_VERSION,
            "digest": digest,
            "created_unix": time.time(),
            "repro_version": __version__,
            "spec": spec.to_jsonable(),
            "payload": {
                k: payload[k]
                for k in (*_SCALARS, *_TOTALS_SCALARS)
                if k in payload or k in _SCALARS
            },
        }
        arrays = {k: np.asarray(payload[k], dtype=dtype) for k, dtype in _ARRAYS.items()}
        arrays["tracked_rows"] = _narrowest(arrays["tracked_rows"])
        self._atomic_write(npz_path, lambda fh: np.savez(fh, **arrays))
        self._atomic_write(
            meta_path, lambda fh: fh.write(json.dumps(meta, indent=2).encode() + b"\n")
        )

    @staticmethod
    def _atomic_write(path: Path, writer) -> None:
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                writer(fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def entries(self) -> list:
        """Metadata paths of every entry (any schema version) on disk."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("v*/*/*.json"))

    def stats(self) -> CacheStats:
        """Count entries and bytes on disk (all schema versions)."""
        entries = self.entries()
        total = 0
        for meta_path in entries:
            for path in (meta_path, meta_path.with_suffix(".npz")):
                try:
                    total += path.stat().st_size
                except OSError:
                    pass
        return CacheStats(
            root=str(self.root),
            schema_version=CACHE_SCHEMA_VERSION,
            entries=len(entries),
            total_bytes=total,
            hits=self.hits,
            misses=self.misses,
        )

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        n = len(self.entries())
        if self.root.is_dir():
            shutil.rmtree(self.root, ignore_errors=True)
        return n
