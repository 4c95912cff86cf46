"""Parallel experiment runner: one dispatcher, retries, partial results.

:func:`run_many` takes a batch of :class:`~repro.exec.spec.ExperimentSpec`
and produces a :class:`BatchResult` holding one :class:`TaskOutcome`
per spec, in spec order.  The contract:

* **Determinism** -- seeds are resolved per batch position before any
  dispatch (:func:`~repro.exec.spec.resolve_seeds`), every task is
  simulated from only its spec, and both the in-process and the
  worker-process paths ship results through the same payload
  round-trip (:mod:`repro.exec.cache`).  ``workers=N`` is therefore
  bit-identical to ``workers=1`` for any ``N``.
* **Caching** -- with a :class:`~repro.exec.cache.ResultCache`, hits
  skip simulation entirely (outcome status ``"cached"``) and fresh
  completions are written back.
* **Robustness** -- a task that raises is retried up to ``retries``
  times; a task that exhausts its retries is reported as ``"failed"``
  (with the worker traceback) while every other task still completes.
  A worker process that dies fails the jobs in flight on its pool, not
  the batch: they are retried on a fresh pool.  A batch never aborts
  because one scenario is sick.
* **Observability** -- each outcome (and each retry) fires the
  optional ``progress`` callback, and an active
  :func:`repro.obs.session` records an ``exec-batch-NNNN.json``
  manifest for the whole batch.

Every batch is split into jobs (lists of specs) and run by one
dispatcher, :func:`_dispatch_jobs`: in-process for one worker or one
job, on a process pool otherwise.  A job's failed members are retried
together as one job; members that succeeded never run again.

Timeout semantics: a pool keeps at most one job per worker in flight,
so a job starts when it is submitted, and ``timeout`` bounds how long
the parent waits for it (``timeout * len(job)`` seconds from its
start).  An expired job counts one failed attempt of each of its specs,
which are retried together under the same bound.  In-process jobs run
unbounded.  CPython cannot preempt a worker mid-simulation, so an
expired job keeps its worker -- and its place among the ``workers`` in
flight -- until it finishes: the timeout bounds *batch bookkeeping*,
not worker CPU time.
"""

from __future__ import annotations

import traceback
import warnings
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.errors import ExecutionError
from repro.exec.cache import ResultCache, payload_to_result, result_to_payload
from repro.exec.spec import ExperimentSpec, group_by_shape, resolve_seeds
from repro.obs.session import current_session
from repro.simulation.network import NetworkResult, NetworkSimulator
from repro.simulation.rng import DEFAULT_SEED

if TYPE_CHECKING:  # pragma: no cover - typing only, expdb imports lazily
    from repro.expdb.db import ExperimentDB

__all__ = ["TaskOutcome", "BatchResult", "run_many", "execute_spec"]


def execute_spec(spec: ExperimentSpec) -> NetworkResult:
    """Run one spec to completion (the default task function)."""
    return NetworkSimulator(spec.config).run(spec.n_cycles, warmup=spec.warmup)


def _worker_init() -> None:
    """Pool-worker start-up: drop the inherited observation session.

    Run manifests carry process-local sequence numbers; several forked
    workers writing ``run-NNNN`` into one directory would silently
    overwrite each other.  A pooled batch is recorded by the parent's
    ``exec-batch`` manifest instead.
    """
    import importlib

    # attribute access would find the session() contextmanager that
    # repro.obs re-exports, not the submodule
    importlib.import_module("repro.obs.session")._deactivate()


def _run_chunk(specs: List[ExperimentSpec], task_fn) -> List[tuple]:
    """Worker-side chunk executor: one ``("ok"|"err", ...)`` per spec.

    Results travel as payload dicts (see :mod:`repro.exec.cache`), not
    full :class:`NetworkResult` objects, so the IPC cost is the moment
    arrays plus the completed cohort -- never the full tracking matrix.
    """
    fn = task_fn or execute_spec
    out = []
    for spec in specs:
        started = perf_counter()
        try:
            result = fn(spec)
            payload = result if isinstance(result, dict) else result_to_payload(result)
            payload.setdefault("elapsed_seconds", perf_counter() - started)
            out.append(("ok", payload))
        except Exception:
            out.append(("err", traceback.format_exc(limit=20)))
    return out


def _run_shard(specs: List[ExperimentSpec]) -> List[tuple]:
    """Worker-side stacked executor: one engine, one payload per spec.

    The specs are seeds of one scenario
    (:func:`~repro.exec.spec.group_by_shape`).  Each result equals a
    serial run of its spec, whatever the shard holds.  A finite-buffer
    spec runs on the serial path instead (stacked engines refuse finite
    buffers).
    Shard failure is atomic: an exception reports every spec of the
    shard as one failed attempt.
    """
    if specs[0].config.buffer_capacity is not None:
        return _run_chunk(specs, None)
    started = perf_counter()
    try:
        from repro.simulation.streamed import run_streamed

        batch = run_streamed(
            [s.config for s in specs],
            specs[0].n_cycles,
            warmup=specs[0].warmup,
        )
        elapsed = perf_counter() - started
        out = []
        for result in batch.results:
            payload = result_to_payload(result)
            payload["elapsed_seconds"] = elapsed / len(specs)
            out.append(("ok", payload))
        return out
    except Exception:
        return [("err", traceback.format_exc(limit=20))] * len(specs)


def _plan_jobs(specs, pending, *, workers, vectorize, shard_mem) -> List[List[int]]:
    """Split the pending spec indices into dispatch jobs.

    Per-spec work runs one spec per job in-process, so each progress
    event fires when its spec finishes, and about four chunks per
    worker on a pool, which keeps the pool fed without making one slow
    chunk the long pole.  Stacked work groups the specs by scenario
    (seeds of one scenario stack) and splits each group into shards of
    :func:`~repro.exec.sharded.plan_shard_size` specs under the byte
    budget ``shard_mem`` (finite-buffer specs run one by one).  A
    spec's result depends neither on its job-mates nor on the job size.
    """
    if not vectorize:
        size = 1 if workers == 1 else -(-len(pending) // (workers * 4))
        return [pending[j : j + size] for j in range(0, len(pending), size)]
    from repro.exec.sharded import plan_shard_size

    jobs: List[List[int]] = []
    for group in group_by_shape([specs[i] for i in pending]):
        members = [pending[j] for j in group]
        first = specs[members[0]]
        if first.config.buffer_capacity is not None:
            size = 1
        else:
            size = plan_shard_size(first.config, first.n_cycles, shard_mem)
        jobs.extend(members[j : j + size] for j in range(0, len(members), size))
    return jobs


def _dispatch_jobs(
    specs, jobs, outcomes, *,
    workers, retries, timeout, cache, progress, execute,
) -> None:
    """Run jobs (lists of spec indices) in-process or on a pool, with retries.

    ``execute(specs_list)`` returns one ``("ok"|"err", ...)`` per spec
    and must be picklable for pooled dispatch.  One worker or one job
    runs in-process, each retry right after its failure; otherwise the
    jobs and their retries share a pool, one job per worker at a time,
    under ``timeout``.  A job's failed members are retried together as
    one job.  A worker that dies breaks its pool: every job in flight
    counts one failed attempt, and the retries and the jobs not yet
    started go to a fresh pool.
    """

    def settle(job, attempt, job_out, retry) -> None:
        """Finish a job's members; pass the ones to try again to ``retry``."""
        again = []
        for i, (kind, value) in zip(job, job_out, strict=True):
            if kind == "ok":
                _finish_ok(outcomes, specs, i, value, attempt, cache, progress)
            elif attempt <= retries:
                _emit(
                    progress,
                    TaskOutcome(
                        index=i, spec=specs[i], status="retry",
                        error=value, attempts=attempt,
                    ),
                )
                again.append(i)
            else:
                _finish_failed(outcomes, specs, i, value, attempt, progress)
        if again:
            retry(again, attempt + 1)

    if workers == 1 or len(jobs) == 1:
        stack = [(job, 1) for job in reversed(jobs)]
        while stack:
            job, attempt = stack.pop()
            settle(
                job, attempt, execute([specs[i] for i in job]),
                lambda again, n: stack.append((again, n)),
            )
        return

    def pool_round(todo) -> List[tuple]:
        """Run jobs and their retries on one pool, one job per worker at a
        time; return the jobs still unstarted when the pool broke."""
        queue = deque(todo)
        running = {}  # future -> (job, attempt, start time)
        abandoned: set = set()  # timed out, but still holding a worker
        slots = min(workers, len(todo))
        broken = False

        def requeue(job, attempt: int) -> None:
            queue.append((job, attempt))

        with ProcessPoolExecutor(max_workers=slots, initializer=_worker_init) as pool:
            while True:
                while not broken and queue and len(running) + len(abandoned) < slots:
                    job, attempt = queue[0]
                    try:
                        fut = pool.submit(execute, [specs[i] for i in job])
                    except BrokenExecutor:
                        broken = True
                    else:
                        queue.popleft()
                        running[fut] = (job, attempt, perf_counter())
                if not running and not abandoned:
                    break
                slack = None
                if timeout is not None and running:
                    first = min(t0 + timeout * len(job) for job, _, t0 in running.values())
                    slack = max(0.0, first - perf_counter())
                done, _ = wait(
                    set(running) | abandoned, timeout=slack, return_when=FIRST_COMPLETED
                )
                for fut in done:
                    if fut in abandoned:
                        abandoned.discard(fut)  # its worker is free again
                        continue
                    job, attempt, _ = running.pop(fut)
                    try:
                        job_out = fut.result()
                    except Exception:
                        # the job never ran to the end: its worker died
                        # (BrokenProcessPool) or it could not be shipped
                        job_out = [("err", traceback.format_exc(limit=10))] * len(job)
                    settle(job, attempt, job_out, requeue)
                if timeout is None:
                    continue
                now = perf_counter()
                for fut, (job, attempt, t0) in list(running.items()):
                    if now >= t0 + timeout * len(job):
                        del running[fut]
                        if not fut.cancel():
                            abandoned.add(fut)
                        note = f"timeout: no result within {timeout * len(job):g}s of its start"
                        settle(job, attempt, [("err", note)] * len(job), requeue)
        return list(queue)

    # a pool whose worker died refuses new jobs: each round's unstarted
    # jobs run on a fresh pool
    todo = [(job, 1) for job in jobs]
    while todo:
        todo = pool_round(todo)


@dataclass
class TaskOutcome:
    """What happened to one spec of a batch."""

    index: int
    spec: ExperimentSpec
    #: ``"completed"`` (simulated this batch), ``"cached"``, or ``"failed"``
    status: str
    result: Optional[NetworkResult] = None
    #: worker traceback (or timeout note) for failed tasks
    error: Optional[str] = None
    #: attempts actually made (0 for cache hits)
    attempts: int = 0
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status in ("completed", "cached")


@dataclass
class BatchResult:
    """All outcomes of one :func:`run_many` call, in spec order."""

    outcomes: List[TaskOutcome] = field(default_factory=list)
    workers: int = 1
    elapsed_seconds: float = 0.0

    @property
    def n_tasks(self) -> int:
        return len(self.outcomes)

    @property
    def n_simulated(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "completed")

    @property
    def n_cached(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "cached")

    @property
    def n_failed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "failed")

    def results(self) -> List[Optional[NetworkResult]]:
        """Per-spec results (``None`` where the task failed)."""
        return [o.result for o in self.outcomes]

    def summary(self) -> dict:
        """One-glance batch accounting (printed by ``python -m repro batch``).

        Returns per-status counts plus attempt and cache tallies::

            {"n_tasks": 8, "statuses": {"completed": 6, "cached": 1,
             "failed": 1}, "total_attempts": 9, "cache_hits": 1,
             "cache_misses": 7, "workers": 4, "elapsed_seconds": 1.9}

        ``cache_hits`` counts outcomes served from the result cache;
        ``cache_misses`` is every other task (simulated or failed).
        """
        statuses: dict = {}
        for outcome in self.outcomes:
            statuses[outcome.status] = statuses.get(outcome.status, 0) + 1
        return {
            "n_tasks": self.n_tasks,
            "statuses": dict(sorted(statuses.items())),
            "total_attempts": sum(o.attempts for o in self.outcomes),
            "cache_hits": self.n_cached,
            "cache_misses": self.n_tasks - self.n_cached,
            "workers": self.workers,
            "elapsed_seconds": self.elapsed_seconds,
        }

    def failures(self) -> List[TaskOutcome]:
        return [o for o in self.outcomes if o.status == "failed"]

    def raise_on_failure(self) -> "BatchResult":
        """Raise :class:`ExecutionError` if any task failed; else self."""
        failed = self.failures()
        if failed:
            notes = "; ".join(
                f"{o.spec.label or f'task {o.index}'}: "
                f"{(o.error or 'unknown error').strip().splitlines()[-1]}"
                for o in failed
            )
            raise ExecutionError(
                f"{len(failed)} of {self.n_tasks} batch task(s) failed after "
                f"{max(o.attempts for o in failed)} attempt(s): {notes}"
            )
        return self


def _emit(progress, outcome: TaskOutcome) -> None:
    """Dispatch one outcome to the progress subscriber, if any.

    A subscriber is an observer: an exception it raises must never
    abort the batch (the simulation already ran; its result is good).
    It must not disappear silently either -- the failure is reported as
    a :class:`RuntimeWarning` so a broken sink is visible in test runs
    and ``-W error`` deployments.
    """
    if progress is None:
        return
    try:
        progress(
            {
                "event": outcome.status,
                "index": outcome.index,
                "label": outcome.spec.label,
                "digest": outcome.spec.digest[:12],
                "attempts": outcome.attempts,
                "error": (
                    outcome.error.strip().splitlines()[-1] if outcome.error else None
                ),
            }
        )
    except Exception as exc:
        warnings.warn(
            f"progress callback failed for "
            f"{outcome.spec.label or outcome.spec.digest[:12]} "
            f"({outcome.status}): {exc!r}; batch continues",
            RuntimeWarning,
            stacklevel=2,
        )


def _finish_ok(outcomes, specs, i, payload, attempts, cache, progress) -> None:
    spec = specs[i]
    result = payload_to_result(payload, spec.config)
    if cache is not None:
        cache.put(spec, payload)
    outcomes[i] = TaskOutcome(
        index=i,
        spec=spec,
        status="completed",
        result=result,
        attempts=attempts,
        elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
    )
    _emit(progress, outcomes[i])


def _finish_failed(outcomes, specs, i, error, attempts, progress) -> None:
    outcomes[i] = TaskOutcome(
        index=i, spec=specs[i], status="failed", error=error, attempts=attempts
    )
    _emit(progress, outcomes[i])


def run_many(
    specs: Sequence[ExperimentSpec],
    *,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    retries: int = 1,
    timeout: Optional[float] = None,
    base_seed: int = DEFAULT_SEED,
    progress: Optional[Callable[[dict], None]] = None,
    task_fn: Optional[Callable[[ExperimentSpec], NetworkResult]] = None,
    vectorize: bool = False,
    shard_mem: Optional[int] = None,
    db: Optional["ExperimentDB"] = None,
) -> BatchResult:
    """Execute a batch of specs; see the module docstring for the contract.

    Parameters
    ----------
    workers:
        Process count; ``1`` (default) runs in-process with no pool, one
        spec per job; ``N`` runs about four jobs per worker on a pool.
    cache:
        Optional :class:`ResultCache`; hits skip simulation, fresh
        completions are written back.
    retries:
        Extra attempts after a task's first failure (so a task runs at
        most ``retries + 1`` times); a job's failed members retry
        together, each with a ``"retry"`` progress event.
    timeout:
        Per-task seconds the parent waits for a started job (pool mode
        only; see module docstring for the exact semantics).
    base_seed:
        Feeds :func:`~repro.exec.spec.resolve_seeds` for specs whose
        config has no seed.
    progress:
        Callback receiving one event dict per outcome (and per retry).
    task_fn:
        Override for the per-spec work -- used by fault-injection
        tests and custom workloads; must be picklable for ``workers > 1``.
    vectorize:
        Run the seeds of each scenario in stacked engines
        (:mod:`repro.simulation.batched`), in shards of
        :func:`~repro.exec.sharded.plan_shard_size` specs -- composing
        with ``workers`` (shards are pool jobs) and the cache (cached
        specs are skipped).  Specs share a stack iff they differ in
        nothing but the config seed
        (:func:`~repro.exec.spec.group_by_shape`).  Every spec's result,
        and so its digest and cache entry, is the one a serial run gives
        it.  Finite-buffer specs run serially.
        ``track_limit=0`` specs return streaming totals summaries instead
        of per-message panels (see ``docs/scaling.md``).  Incompatible
        with ``task_fn``.
    shard_mem:
        Per-shard working-set budget in bytes of the stacked path
        (default :data:`~repro.exec.sharded.DEFAULT_SHARD_MEM`,
        256 MiB); giving one implies ``vectorize=True``.  Purely an
        execution knob: it never enters digests or results.
    db:
        Optional :class:`~repro.expdb.db.ExperimentDB`; every outcome
        (completed, cached, and failed) is recorded in the ledger after
        the batch finishes.  Recording is strictly observational: the
        returned :class:`BatchResult` is identical with and without a
        ledger, and a ledger write failure is swallowed (stderr note)
        rather than failing a batch that already computed its results.
    """
    if workers < 1:
        raise ExecutionError(f"workers must be >= 1, got {workers}")
    if retries < 0:
        raise ExecutionError(f"retries must be >= 0, got {retries}")
    vectorize = vectorize or shard_mem is not None
    if vectorize and task_fn is not None:
        raise ExecutionError("vectorize=True cannot run a custom task_fn")
    started = perf_counter()
    specs = resolve_seeds(specs, base_seed=base_seed)
    outcomes: List[Optional[TaskOutcome]] = [None] * len(specs)

    pending: List[int] = []
    for i, spec in enumerate(specs):
        cached = cache.get(spec) if cache is not None else None
        if cached is not None:
            outcomes[i] = TaskOutcome(
                index=i, spec=spec, status="cached", result=cached, attempts=0
            )
            _emit(progress, outcomes[i])
        else:
            pending.append(i)

    if pending:
        execute = _run_shard if vectorize else partial(_run_chunk, task_fn=task_fn)
        jobs = _plan_jobs(
            specs, pending, workers=workers, vectorize=vectorize, shard_mem=shard_mem
        )
        _dispatch_jobs(
            specs, jobs, outcomes, workers=workers, retries=retries,
            timeout=timeout, cache=cache, progress=progress, execute=execute,
        )

    batch = BatchResult(
        outcomes=list(outcomes), workers=workers,
        elapsed_seconds=perf_counter() - started,
    )
    session = current_session()
    if session is not None:
        session.record_exec_batch(batch)
    if db is not None:
        import sys
        import time

        from repro.expdb.ingest import ingest_batch

        try:
            # repro.exec is a sanctioned timing layer: the ledger itself
            # never reads the clock, the timestamp enters here
            ingest_batch(db, batch, created_unix=time.time())
        except Exception as exc:
            # repro: lint-ok RPR004 -- a swallowed ledger failure must stay visible
            print(f"warning: experiment-db ingestion failed: {exc}", file=sys.stderr)
    return batch
