"""Parallel experiment runner: process pool, retries, partial results.

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
  A batch never aborts because one scenario is sick.
* **Observability** -- each outcome fires the optional ``progress``
  callback, and an active :func:`repro.obs.session` records an
  ``exec-batch-NNNN.json`` manifest for the whole batch.

Timeout semantics: ``timeout`` bounds how long the parent waits per
dispatched chunk (``timeout * chunk_len`` seconds from dispatch).  An
expired chunk is treated as one failure of each of its tasks and
retried under the same bound.  CPython cannot preempt a worker mid-
simulation, so a genuinely hung worker still occupies its process slot
until pool shutdown -- the timeout bounds *batch bookkeeping*, not
worker CPU time.
"""

from __future__ import annotations

import traceback
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.errors import ExecutionError
from repro.exec.cache import ResultCache, payload_to_result, result_to_payload
from repro.exec.spec import (
    ExperimentSpec,
    group_for_stream,
    group_for_vectorize,
    resolve_seeds,
)
from repro.obs.session import current_session
from repro.simulation.backends import BACKEND_CHOICES
from repro.simulation.network import NetworkResult, NetworkSimulator
from repro.simulation.rng import DEFAULT_SEED

if TYPE_CHECKING:  # pragma: no cover - typing only, expdb imports lazily
    from repro.expdb.db import ExperimentDB

__all__ = ["TaskOutcome", "BatchResult", "LocalPool", "run_many", "execute_spec"]


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


def _run_batched_group(specs: List[ExperimentSpec], backend: str = "auto") -> List[tuple]:
    """Worker-side batched executor: one stacked run, one payload per spec.

    The specs must share everything that fixes the engine's array
    shapes (guaranteed by :func:`~repro.exec.spec.group_for_vectorize`);
    stackable parameters -- seed, load, bulk, bias, service model -- may
    differ per spec and ride the scenario axis of
    :func:`~repro.simulation.batched.run_stacked`.  ``backend`` selects
    the compute backend of the stacked cycle loop (an execution detail:
    results and cache keys are backend-independent).  Failure is
    atomic -- a stacked run cannot partially succeed -- so an exception
    reports every spec of the group as one failed attempt.
    """
    started = perf_counter()
    try:
        from repro.simulation.batched import run_stacked

        results = run_stacked(
            [s.config for s in specs],
            specs[0].n_cycles,
            warmup=specs[0].warmup,
            backend=backend,
        )
        elapsed = perf_counter() - started
        out = []
        for result in results:
            payload = result_to_payload(result)
            payload["elapsed_seconds"] = elapsed / len(specs)
            out.append(("ok", payload))
        return out
    except Exception:
        return [("err", traceback.format_exc(limit=20))] * len(specs)


def _execute_job(
    specs: List[ExperimentSpec], batched: bool, backend: str = "auto"
) -> List[tuple]:
    """One vectorized-path job: a stacked group or a serial fallback."""
    if batched:
        return _run_batched_group(specs, backend)
    return _run_chunk(specs, None)


def _run_stream_shard(
    specs: List[ExperimentSpec], batched: bool, backend: str = "auto"
) -> List[tuple]:
    """Worker-side streamed executor: one shard, one payload per spec.

    ``batched`` is accepted for dispatcher symmetry and ignored -- every
    stream job is a :func:`~repro.simulation.streamed.run_streamed`
    call.  Shard failure is atomic, like a stacked group.
    """
    started = perf_counter()
    try:
        from repro.simulation.streamed import run_streamed

        batch = run_streamed(
            [s.config for s in specs],
            specs[0].n_cycles,
            warmup=specs[0].warmup,
            backend=backend,
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


def _run_vectorized(
    specs, pending, groups, outcomes, *,
    workers, retries, timeout, cache, progress, backend="auto",
) -> None:
    """Execute a grouped batch: stacked runs for marked groups.

    Jobs are whole groups: if *any* member of a batchable group is
    uncached, the entire group re-runs (a stacked run is a pure function
    of the ordered scenario list, so the cached members are simply
    reproduced and only the pending ones are finished).  Unbatchable
    specs (singletons, finite buffers) become one-spec serial jobs on
    the proven :func:`_run_chunk` path.  Retries and timeouts apply per
    job, atomically.
    """
    pending_set = set(pending)
    jobs: List[tuple] = []  # (indices_to_run, indices_to_finish, batched)
    for indices, batchable in groups:
        need = [i for i in indices if i in pending_set]
        if not need:
            continue
        if batchable:
            jobs.append((indices, need, True))
        else:
            jobs.extend(([i], [i], False) for i in need)
    execute = partial(_execute_job, backend=backend)
    _dispatch_jobs(
        specs, jobs, outcomes, workers=workers, retries=retries,
        timeout=timeout, cache=cache, progress=progress, execute=execute,
    )


def _run_streamed_groups(
    specs, pending, groups, outcomes, *,
    workers, retries, timeout, cache, progress, backend="auto", shard_mem=None,
) -> None:
    """Execute a stream-marked batch in memory-bounded shards.

    Unlike the vectorized path, jobs cover only *pending* specs: a
    streamed replica's result is independent of its shard-mates, so
    cached members are genuinely skipped and the pending remainder is
    sharded under the byte budget.  Shard composition affects neither
    results (shard-invariance, test-asserted) nor digests
    (:data:`~repro.exec.spec.STREAM_MARKER` carries no batch info).
    """
    from repro.exec.sharded import plan_shard_size

    pending_set = set(pending)
    jobs: List[tuple] = []
    for indices, _ in groups:
        need = [i for i in indices if i in pending_set]
        if not need:
            continue
        shard_size = plan_shard_size(
            specs[need[0]].config, specs[need[0]].n_cycles, shard_mem
        )
        for j in range(0, len(need), shard_size):
            shard = need[j : j + shard_size]
            jobs.append((shard, shard, True))
    execute = partial(_run_stream_shard, backend=backend)
    _dispatch_jobs(
        specs, jobs, outcomes, workers=workers, retries=retries,
        timeout=timeout, cache=cache, progress=progress, execute=execute,
    )


def _dispatch_jobs(
    specs, jobs, outcomes, *,
    workers, retries, timeout, cache, progress, execute,
) -> None:
    """Run group-shaped jobs in-process or on a pool, with retries.

    A job is ``(indices_to_run, indices_to_finish, batched)``;
    ``execute(specs_list, batched)`` returns one ``("ok"|"err", ...)``
    per spec.  ``execute`` must be picklable for pooled dispatch.
    Retries and timeouts apply per job, atomically.
    """

    def finish(job, attempt, job_out) -> List[tuple]:
        """Finish a job's pending members; return member-level errors."""
        indices, need, _ = job
        by_index = dict(zip(indices, job_out, strict=True))
        errors = []
        for i in need:
            kind, value = by_index[i]
            if kind == "ok":
                _finish_ok(outcomes, specs, i, value, attempt, cache, progress)
            else:
                errors.append((i, value))
        return errors

    def handle_errors(job, attempt, errors, resubmit) -> None:
        indices, need, batched = job
        still = [i for i, _ in errors]
        if attempt <= retries:
            for i, error in errors:
                _emit(
                    progress,
                    TaskOutcome(
                        index=i, spec=specs[i], status="retry",
                        error=error, attempts=attempt,
                    ),
                )
            resubmit((indices, still, batched), attempt + 1)
        else:
            for i, error in errors:
                _finish_failed(outcomes, specs, i, error, attempt, progress)

    if workers == 1 or len(jobs) == 1:
        for job in jobs:
            attempt = 1
            while job is not None:
                indices, need, batched = job
                job_out = execute([specs[i] for i in indices], batched)
                errors = finish(job, attempt, job_out)
                job = None
                if errors:
                    def retry(next_job, next_attempt):
                        nonlocal job, attempt
                        job, attempt = next_job, next_attempt

                    handle_errors((indices, need, batched), attempt, errors, retry)
        return

    futures = {}  # future -> (job, attempt, dispatch time)
    with ProcessPoolExecutor(
        max_workers=min(workers, len(jobs)), initializer=_worker_init
    ) as pool:

        def submit(job, attempt: int) -> None:
            indices, _, batched = job
            fut = pool.submit(execute, [specs[i] for i in indices], batched)
            futures[fut] = (job, attempt, perf_counter())

        for job in jobs:
            submit(job, 1)

        while futures:
            if timeout is None:
                done, _ = wait(set(futures), return_when=FIRST_COMPLETED)
            else:
                now = perf_counter()
                deadlines = {
                    fut: t0 + timeout * len(job[0])
                    for fut, (job, _, t0) in futures.items()
                }
                slack = max(0.0, min(deadlines.values()) - now)
                done, _ = wait(set(futures), timeout=slack, return_when=FIRST_COMPLETED)
                if not done:
                    now = perf_counter()
                    expired = [f for f, d in deadlines.items() if now >= d]
                    for fut in expired:
                        job, attempt, _ = futures.pop(fut)
                        fut.cancel()
                        note = (
                            f"timeout: no result within "
                            f"{timeout * len(job[0]):.1f}s of dispatch"
                        )
                        handle_errors(
                            job, attempt, [(i, note) for i in job[1]], submit
                        )
                    continue
            for fut in done:
                job, attempt, _ = futures.pop(fut)
                try:
                    job_out = fut.result()
                except Exception:
                    error = traceback.format_exc(limit=10)
                    handle_errors(
                        job, attempt, [(i, error) for i in job[1]], submit
                    )
                    continue
                errors = finish(job, attempt, job_out)
                if errors:
                    handle_errors(job, attempt, errors, submit)


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


def _run_serial(specs, pending, outcomes, retries, task_fn, cache, progress) -> None:
    for i in pending:
        attempts = 0
        while True:
            attempts += 1
            (kind, value), = _run_chunk([specs[i]], task_fn)
            if kind == "ok":
                _finish_ok(outcomes, specs, i, value, attempts, cache, progress)
                break
            if attempts <= retries:
                continue
            _finish_failed(outcomes, specs, i, value, attempts, progress)
            break


class LocalPool:
    """Chunked dispatch onto a :class:`ProcessPoolExecutor` with retries.

    Tasks are submitted in chunks (amortising IPC and fork overhead);
    failures within a chunk are retried *individually*, so one sick
    scenario never drags its chunk-mates back through the pool.
    """

    def __init__(
        self,
        workers: int,
        retries: int = 1,
        timeout: Optional[float] = None,
        chunksize: Optional[int] = None,
    ) -> None:
        self.workers = workers
        self.retries = retries
        self.timeout = timeout
        self.chunksize = chunksize

    def _chunks(self, pending: List[int]) -> List[List[int]]:
        size = self.chunksize
        if size is None:
            # ~4 chunks per worker keeps the pool fed without making
            # one slow chunk the long pole
            size = max(1, -(-len(pending) // (self.workers * 4)))
        return [pending[j : j + size] for j in range(0, len(pending), size)]

    def run(self, specs, pending, outcomes, task_fn, cache, progress) -> None:
        futures = {}  # future -> (index list, attempt number, dispatch time)
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(pending)), initializer=_worker_init
        ) as pool:

            def submit(idx_list: List[int], attempt: int) -> None:
                fut = pool.submit(_run_chunk, [specs[i] for i in idx_list], task_fn)
                futures[fut] = (idx_list, attempt, perf_counter())

            def handle_error(i: int, attempt: int, error: str) -> None:
                if attempt <= self.retries:
                    _emit(
                        progress,
                        TaskOutcome(
                            index=i, spec=specs[i], status="retry",
                            error=error, attempts=attempt,
                        ),
                    )
                    submit([i], attempt + 1)
                else:
                    _finish_failed(outcomes, specs, i, error, attempt, progress)

            for chunk in self._chunks(pending):
                submit(chunk, 1)

            while futures:
                if self.timeout is None:
                    done, _ = wait(set(futures), return_when=FIRST_COMPLETED)
                else:
                    now = perf_counter()
                    deadlines = {
                        fut: t0 + self.timeout * len(idx)
                        for fut, (idx, _, t0) in futures.items()
                    }
                    slack = max(0.0, min(deadlines.values()) - now)
                    done, _ = wait(
                        set(futures), timeout=slack, return_when=FIRST_COMPLETED
                    )
                    if not done:
                        now = perf_counter()
                        expired = [f for f, d in deadlines.items() if now >= d]
                        for fut in expired:
                            idx_list, attempt, t0 = futures.pop(fut)
                            fut.cancel()  # frees the slot if not yet started
                            note = (
                                f"timeout: no result within "
                                f"{self.timeout * len(idx_list):.1f}s of dispatch"
                            )
                            for i in idx_list:
                                handle_error(i, attempt, note)
                        continue
                for fut in done:
                    idx_list, attempt, _ = futures.pop(fut)
                    try:
                        chunk_out = fut.result()
                    except Exception:
                        # the worker process died (or the chunk call
                        # itself broke); every spec in it counts one
                        # failed attempt
                        error = traceback.format_exc(limit=10)
                        for i in idx_list:
                            handle_error(i, attempt, error)
                        continue
                    for i, (kind, value) in zip(idx_list, chunk_out, strict=True):
                        if kind == "ok":
                            _finish_ok(
                                outcomes, specs, i, value, attempt, cache, progress
                            )
                        else:
                            handle_error(i, attempt, value)


def run_many(
    specs: Sequence[ExperimentSpec],
    *,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    retries: int = 1,
    timeout: Optional[float] = None,
    chunksize: Optional[int] = None,
    base_seed: int = DEFAULT_SEED,
    progress: Optional[Callable[[dict], None]] = None,
    task_fn: Optional[Callable[[ExperimentSpec], NetworkResult]] = None,
    vectorize: bool = False,
    stream: bool = False,
    shard_mem: Optional[int] = None,
    backend: str = "auto",
    db: Optional["ExperimentDB"] = None,
) -> BatchResult:
    """Execute a batch of specs; see the module docstring for the contract.

    Parameters
    ----------
    workers:
        Process count; ``1`` (default) runs in-process with no pool.
    cache:
        Optional :class:`ResultCache`; hits skip simulation, fresh
        completions are written back.
    retries:
        Extra attempts after a task's first failure (so a task runs at
        most ``retries + 1`` times).
    timeout:
        Per-task seconds the parent waits for a dispatched chunk
        (pool mode only; see module docstring for the exact semantics).
    chunksize:
        Specs per pool submission; default targets ~4 chunks/worker.
    base_seed:
        Feeds :func:`~repro.exec.spec.resolve_seeds` for specs whose
        config has no seed.
    progress:
        Callback receiving one event dict per outcome (and per retry).
    task_fn:
        Override for the per-spec work -- used by fault-injection
        tests and custom workloads; must be picklable for ``workers > 1``.
    vectorize:
        Stack same-shape specs into replica-batched engine runs
        (:mod:`repro.simulation.batched`), one stacked run per group --
        composing with ``workers`` (groups are pool jobs) and the cache
        (entries stay per-spec, keyed by batch-marked digests; see
        :func:`~repro.exec.spec.group_for_vectorize`).  Group members
        may differ in seed, load ``p``, bulk size, favourite bias
        ``q``, and service model -- a whole sweep becomes one
        scenario-stacked kernel pass -- as long as the shape-fixing
        fields (topology, ``k``, stages, width, transfer, buffers,
        track limit, cycle budget, warm-up) agree.  Specs with no
        same-shape partner, or with finite buffers, silently fall back
        to the serial engine, so ``vectorize=True`` is always safe.
        Incompatible with ``task_fn`` and ``chunksize``.
    stream:
        Run every spec on the streamed engine
        (:mod:`repro.simulation.streamed`) in memory-bounded shards.
        Specs are stream-marked (digest kind ``"stream"`` -- a distinct
        replication design from both serial and batched runs), grouped
        by shape like ``vectorize``, and the *pending* members of each
        group sharded under ``shard_mem``: cached specs are skipped
        outright, and results are bit-identical for any shard size or
        worker count (streamed replicas are seeded independently).
        Requires infinite buffers; incompatible with ``vectorize``,
        ``task_fn``, and ``chunksize``.  ``track_limit=0`` specs
        additionally return streaming totals summaries instead of
        per-message panels (see ``docs/scaling.md``).
    shard_mem:
        Per-shard working-set budget in bytes for ``stream=True``
        (default :data:`~repro.exec.sharded.DEFAULT_SHARD_MEM`,
        256 MiB).  Purely an execution knob: it never enters digests or
        results.
    backend:
        Compute backend for vectorized groups -- ``"numpy"``,
        ``"numba"``, or ``"auto"`` (default; JIT when numba is usable,
        reference otherwise).  Purely an execution detail: results,
        digests, and cache keys are backend-independent (the JIT loop is
        bit-identical to the reference), and serial paths always use the
        reference implementation.  See :mod:`repro.simulation.backends`.
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
    if vectorize and task_fn is not None:
        raise ExecutionError("vectorize=True cannot run a custom task_fn")
    if vectorize and chunksize is not None:
        raise ExecutionError("vectorize=True groups specs itself; drop chunksize")
    if stream and vectorize:
        raise ExecutionError(
            "stream=True and vectorize=True are distinct replication "
            "designs (independent vs shared-stream seeding); pick one"
        )
    if stream and task_fn is not None:
        raise ExecutionError("stream=True cannot run a custom task_fn")
    if stream and chunksize is not None:
        raise ExecutionError("stream=True shards specs itself; drop chunksize")
    if shard_mem is not None and not stream:
        raise ExecutionError("shard_mem only applies with stream=True")
    if backend not in BACKEND_CHOICES:
        raise ExecutionError(
            f"backend must be one of {', '.join(map(repr, BACKEND_CHOICES))}; "
            f"got {backend!r}"
        )
    started = perf_counter()
    specs = resolve_seeds(specs, base_seed=base_seed)
    groups = None
    if vectorize:
        # grouping sees the FULL batch (before cache lookups), so batch
        # composition -- and hence every digest and result -- is a pure
        # function of the spec list, never of cache state
        specs, groups = group_for_vectorize(specs)
    elif stream:
        # stream marking is composition-free, so here the cache may
        # legitimately shape execution: only pending specs are sharded
        specs, groups = group_for_stream(specs)
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
        if vectorize:
            _run_vectorized(
                specs, pending, groups, outcomes,
                workers=workers, retries=retries, timeout=timeout,
                cache=cache, progress=progress, backend=backend,
            )
        elif stream:
            _run_streamed_groups(
                specs, pending, groups, outcomes,
                workers=workers, retries=retries, timeout=timeout,
                cache=cache, progress=progress, backend=backend,
                shard_mem=shard_mem,
            )
        elif workers == 1 or len(pending) == 1:
            _run_serial(specs, pending, outcomes, retries, task_fn, cache, progress)
        else:
            LocalPool(workers, retries=retries, timeout=timeout, chunksize=chunksize).run(
                specs, pending, outcomes, task_fn, cache, progress
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
