"""Digest-keyed job manager behind the simulation service.

The manager multiplexes every HTTP client onto one shared set of
executors:

* **Dedup** -- jobs are keyed by :attr:`ExperimentSpec.digest
  <repro.exec.spec.ExperimentSpec.digest>`.  Concurrent submissions of
  an identical spec all land on the *same* job, so the engine runs
  once no matter how many clients ask (:attr:`JobManager.executions`
  counts actual engine runs and is what the end-to-end tests assert
  on).  The shared :class:`~repro.exec.cache.ResultCache` extends the
  dedup across restarts and processes: a submission whose entry is on
  disk is answered at once, and a queued job whose entry appeared
  meanwhile is served by :func:`~repro.exec.runner.run_many`'s own
  lookup.
* **Backpressure** -- the pending queue is bounded; a submission that
  would overflow it raises :class:`~repro.errors.JobQueueFullError`
  without changing any state, which the HTTP layer maps onto 429.
* **Observability** -- each job accumulates an ordered event list
  (``queued`` / ``running`` / per-outcome progress events from
  :func:`~repro.exec.runner.run_many` / a terminal ``done`` or
  ``failed``).  :meth:`JobManager.wait_events` is the blocking cursor
  API the SSE endpoint streams from.
* **Ledger** -- with ``db=``, every finished outcome is recorded via
  :func:`repro.expdb.ingest.ingest_outcome` (``source="api"``).
  Recording is observational: a ledger failure is warned about, never
  surfaced to the submitting client.

Execution itself is delegated to :func:`~repro.exec.runner.run_many`,
so retries, timeouts, caching, and progress events behave exactly as
they do for ``python -m repro batch``.
"""

from __future__ import annotations

import queue
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple, Union

from repro.errors import ApiError, JobQueueFullError
from repro.exec.cache import ResultCache
from repro.exec.runner import TaskOutcome, run_many
from repro.exec.spec import ExperimentSpec
from repro.simulation.network import NetworkResult

if TYPE_CHECKING:  # pragma: no cover - typing only, expdb imports lazily
    from repro.expdb.db import ExperimentDB

__all__ = ["Job", "JobManager", "result_summary"]

#: Job states a client can observe.
JOB_STATUSES = ("queued", "running", "done", "failed")

_TERMINAL = ("done", "failed")


def result_summary(result: NetworkResult) -> Dict[str, Any]:
    """The JSON-ready digest of a result a run endpoint reports.

    Deliberately scalar-and-small: the full cohort stays in the result
    cache; clients wanting arrays re-run against the cache locally.
    Streaming-summary results (``track_limit=0``) have no per-message
    cohort; their totals come from the streamed moment accumulators.
    """
    doc: Dict[str, Any] = {
        "n_cycles": int(result.n_cycles),
        "warmup": int(result.warmup),
        "injected": int(result.injected),
        "completed": int(result.completed),
        "dropped": int(result.dropped),
        "max_occupancy": int(result.max_occupancy),
        "stage_means": [float(x) for x in result.stage_means],
        "stage_variances": [float(x) for x in result.stage_variances],
        "elapsed_seconds": float(result.elapsed_seconds),
    }
    if result.totals_summary is not None:
        doc["tracked_messages"] = 0
        doc["streamed_messages"] = int(result.totals_summary.count)
        doc["mean_total_wait"] = (
            float(result.total_waiting_mean())
            if result.totals_summary.count
            else None
        )
    else:
        totals = result.tracked.totals()
        doc["tracked_messages"] = int(totals.size)
        doc["mean_total_wait"] = float(totals.mean()) if totals.size else None
    return doc


def _last_line(text: Optional[str]) -> Optional[str]:
    if not text:
        return None
    return text.strip().splitlines()[-1]


@dataclass
class Job:
    """One digest's lifecycle inside the manager."""

    digest: str
    spec: ExperimentSpec
    created_unix: float
    status: str = "queued"
    #: ordered event log; grows monotonically, read via a cursor
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: terminal outcome status ("completed" | "cached" | "failed")
    outcome_status: Optional[str] = None
    summary: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    attempts: int = 0
    finished_unix: Optional[float] = None

    @property
    def done(self) -> bool:
        return self.status in _TERMINAL

    def to_jsonable(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "digest": self.digest,
            "label": self.spec.label,
            "status": self.status,
            "created_unix": self.created_unix,
            "n_events": len(self.events),
        }
        if self.outcome_status is not None:
            doc["outcome"] = self.outcome_status
            doc["attempts"] = self.attempts
            doc["finished_unix"] = self.finished_unix
        if self.summary is not None:
            doc["result"] = self.summary
        if self.error is not None:
            doc["error"] = _last_line(self.error)
        return doc


class JobManager:
    """Bounded, deduplicating executor pool over :func:`run_many`.

    Parameters mirror the batch runner: ``workers`` / ``retries`` /
    ``timeout`` are passed through to each job's ``run_many`` call;
    ``executors`` is how many jobs may *run* concurrently; ``max_queue``
    bounds how many may *wait*.  ``task_fn`` is the fault-injection
    hook (tests count engine invocations through it).
    """

    def __init__(
        self,
        *,
        executors: int = 2,
        workers: int = 1,
        retries: int = 1,
        timeout: Optional[float] = None,
        shard_mem: Optional[int] = None,
        max_queue: int = 64,
        cache: Optional[ResultCache] = None,
        use_cache: bool = True,
        db: Optional[Union[str, Path, "ExperimentDB"]] = None,
        task_fn: Optional[Callable[[ExperimentSpec], NetworkResult]] = None,
    ) -> None:
        if executors < 1:
            raise ApiError(f"executors must be >= 1, got {executors}")
        if max_queue < 1:
            raise ApiError(f"max_queue must be >= 1, got {max_queue}")
        self._use_cache = use_cache
        self._cache = cache if cache is not None else ResultCache()
        self._workers = workers
        self._retries = retries
        self._timeout = timeout
        #: per-shard byte budget forwarded to each job's run_many call: a
        #: budget runs each job's spec as a stacked shard (docs/scaling.md)
        self._shard_mem = shard_mem
        self._max_queue = max_queue
        # SQLite connections are thread-bound, so the manager keeps the
        # ledger *path* and opens one handle per thread that ingests.
        self._db_path: Optional[Union[str, Path]] = (
            getattr(db, "path", db) if db is not None else None
        )
        self._db_local = threading.local()
        self._task_fn = task_fn
        #: engine runs actually performed (outcome status "completed")
        self.executions = 0
        self._jobs: Dict[str, Job] = {}
        #: one condition guards jobs, events, and counters; SSE readers
        #: block on it in wait_events
        self._cond = threading.Condition()
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue(maxsize=max_queue)
        self._stopped = False
        self._started_unix = time.time()
        self._threads = [
            threading.Thread(
                target=self._executor_loop, name=f"repro-api-exec-{i}", daemon=True
            )
            for i in range(executors)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission ----------------------------------------------------
    def submit(self, spec: ExperimentSpec) -> Tuple[Job, bool]:
        """Register ``spec``; returns ``(job, enqueued)``.

        ``enqueued`` is ``False`` when no new work was scheduled: the
        digest already has a live or finished job, or the result cache
        answered outright (the job is born ``done``).  The HTTP layer
        reports ``cached = not enqueued``.  A previously *failed*
        digest is re-enqueued (transient failures must not poison a
        digest for the life of the service).

        Raises :class:`JobQueueFullError` when the pending queue is at
        capacity -- nothing is registered in that case.
        """
        digest = spec.digest
        with self._cond:
            if self._stopped:
                raise ApiError("job manager is stopped")
            existing = self._jobs.get(digest)
            if existing is not None and existing.status != "failed":
                return existing, False
        # Disk lookup outside the lock: a slow cache read must not
        # stall every SSE reader and submitter.
        cached = self._cache.get(spec) if self._use_cache else None
        with self._cond:
            existing = self._jobs.get(digest)
            if existing is not None and existing.status != "failed":
                return existing, False
            job = existing or Job(digest=digest, spec=spec, created_unix=time.time())
            if cached is not None:
                self._jobs[digest] = job
                outcome = TaskOutcome(
                    index=0, spec=spec, status="cached", result=cached, attempts=0
                )
                self._record_outcome(job, outcome)
                return job, False
            try:
                self._queue.put_nowait(digest)
            except queue.Full as exc:
                raise JobQueueFullError(
                    f"job queue full ({self._max_queue} pending); retry later"
                ) from exc
            job.status = "queued"
            job.error = None
            job.outcome_status = None
            job.summary = None
            self._jobs[digest] = job
            self._append_event(
                job, {"event": "queued", "digest": digest[:12], "label": spec.label}
            )
            return job, True

    # -- queries -------------------------------------------------------
    def get(self, digest: str) -> Optional[Job]:
        with self._cond:
            return self._jobs.get(digest)

    def wait_events(
        self, digest: str, cursor: int = 0, timeout: Optional[float] = None
    ) -> Tuple[List[Dict[str, Any]], bool]:
        """Events after ``cursor``, blocking up to ``timeout`` for news.

        Returns ``(events, done)``.  An empty event list with ``done``
        false means the wait timed out (SSE sends a keepalive and
        loops).  Raises :class:`ApiError` for an unknown digest.
        """
        with self._cond:
            job = self._jobs.get(digest)
            if job is None:
                raise ApiError(f"unknown run {digest!r}")
            if len(job.events) <= cursor and not job.done:
                self._cond.wait(timeout)
            return list(job.events[cursor:]), job.done

    def stats(self) -> Dict[str, Any]:
        """Service-level accounting for ``GET /v1/stats``."""
        with self._cond:
            by_status = dict.fromkeys(JOB_STATUSES, 0)
            for job in self._jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
            doc: Dict[str, Any] = {
                "jobs": by_status,
                "n_jobs": len(self._jobs),
                "executions": self.executions,
                "queue_depth": self._queue.qsize(),
                "max_queue": self._max_queue,
                "executors": len(self._threads),
                "workers": self._workers,
                "shard_mem": self._shard_mem,
                "uptime_seconds": time.time() - self._started_unix,
                "ledger": self._db_path is not None,
            }
        doc["cache"] = self._cache.stats().to_dict() if self._use_cache else None
        return doc

    # -- lifecycle -----------------------------------------------------
    def stop(self, timeout: float = 5.0) -> None:
        """Drain the executors; queued-but-unstarted jobs stay queued."""
        with self._cond:
            if self._stopped:
                return
            self._stopped = True
            self._cond.notify_all()
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=timeout)

    # -- internals -----------------------------------------------------
    def _append_event(self, job: Job, event: Dict[str, Any]) -> None:
        """Record one event and wake every waiting stream (lock held)."""
        job.events.append(event)
        self._cond.notify_all()

    def _executor_loop(self) -> None:
        while True:
            digest = self._queue.get()
            if digest is None:
                return
            try:
                self._run_job(digest)
            except Exception as exc:
                warnings.warn(
                    f"api executor crashed on {digest[:12]}: {exc!r}",
                    RuntimeWarning,
                    stacklevel=2,
                )

    def _run_job(self, digest: str) -> None:
        with self._cond:
            job = self._jobs.get(digest)
            if job is None or job.status != "queued":
                return
            job.status = "running"
            self._append_event(
                job,
                {"event": "running", "digest": digest[:12], "label": job.spec.label},
            )
        spec = job.spec

        def progress(event: Dict[str, Any]) -> None:
            with self._cond:
                self._append_event(job, dict(event))

        try:
            batch = run_many(
                [spec],
                workers=self._workers,
                cache=self._cache if self._use_cache else None,
                retries=self._retries,
                timeout=self._timeout,
                progress=progress,
                task_fn=self._task_fn,
                shard_mem=self._shard_mem,
            )
            outcome = batch.outcomes[0]
        except Exception as exc:
            outcome = TaskOutcome(
                index=0, spec=spec, status="failed", error=repr(exc), attempts=1
            )
        with self._cond:
            self._record_outcome(job, outcome)

    def _record_outcome(self, job: Job, outcome: TaskOutcome) -> None:
        """Finalize a job from its outcome (caller holds the lock)."""
        self._ingest(job, outcome)
        job.outcome_status = outcome.status
        job.attempts = outcome.attempts
        job.error = outcome.error
        job.finished_unix = time.time()
        job.summary = (
            result_summary(outcome.result) if outcome.result is not None else None
        )
        if outcome.status == "completed":
            self.executions += 1
        job.status = "done" if outcome.ok else "failed"
        self._append_event(
            job,
            {
                "event": job.status,
                "status": outcome.status,
                "digest": job.digest[:12],
                "label": job.spec.label,
                "attempts": outcome.attempts,
                "error": _last_line(outcome.error),
            },
        )

    def _thread_db(self) -> Optional["ExperimentDB"]:
        """This thread's ledger handle, opened on first use."""
        if self._db_path is None:
            return None
        db = getattr(self._db_local, "db", None)
        if db is None:
            from repro.expdb.db import ExperimentDB

            db = ExperimentDB(self._db_path)
            self._db_local.db = db
        return db

    def _ingest(self, job: Job, outcome: TaskOutcome) -> None:
        if self._db_path is None:
            return
        from repro.expdb.ingest import ingest_outcome

        try:
            db = self._thread_db()
            assert db is not None
            ingest_outcome(db, outcome, created_unix=time.time(), source="api")
        except Exception as exc:
            warnings.warn(
                f"experiment-db ingestion failed for {job.digest[:12]}: {exc!r}",
                RuntimeWarning,
                stacklevel=2,
            )
