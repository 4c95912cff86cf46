"""JobManager: dedup, backpressure, events, ledger ingestion."""

import threading
import time

import pytest

from repro.api.jobs import JobManager, result_summary
from repro.errors import ApiError, JobQueueFullError
from repro.exec.cache import ResultCache
from repro.exec.runner import execute_spec
from repro.exec.spec import ExperimentSpec
from repro.simulation.network import NetworkConfig


def make_spec(p=0.5, seed=11, n_cycles=600, label=""):
    return ExperimentSpec(
        config=NetworkConfig(
            k=2, n_stages=2, p=p, topology="random", width=16, seed=seed
        ),
        n_cycles=n_cycles,
        label=label,
    )


def wait_done(manager, digest, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = manager.get(digest)
        if job is not None and job.done:
            return job
        time.sleep(0.01)
    raise AssertionError(f"job {digest[:12]} never finished")


class TestSubmit:
    def test_submit_runs_and_summarises(self, tmp_path):
        manager = JobManager(executors=1, cache=ResultCache(tmp_path / "cache"))
        try:
            spec = make_spec(label="one")
            job, enqueued = manager.submit(spec)
            assert enqueued and job.digest == spec.digest
            job = wait_done(manager, spec.digest)
            assert job.status == "done" and job.outcome_status == "completed"
            assert manager.executions == 1
            doc = job.to_jsonable()
            assert doc["result"]["n_cycles"] == 600
            assert doc["result"]["completed"] > 0
            assert len(doc["result"]["stage_means"]) == 2
        finally:
            manager.stop()

    def test_identical_submissions_dedupe_onto_one_job(self, tmp_path):
        manager = JobManager(executors=2, cache=ResultCache(tmp_path / "cache"))
        try:
            spec = make_spec()
            first, enq1 = manager.submit(spec)
            second, enq2 = manager.submit(spec)
            assert first is second
            assert enq1 and not enq2
            wait_done(manager, spec.digest)
            third, enq3 = manager.submit(spec)
            assert third is first and not enq3
            assert manager.executions == 1
        finally:
            manager.stop()

    def test_disk_cache_hit_creates_finished_job(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = make_spec()
        cache.put(spec, execute_spec(spec))
        manager = JobManager(executors=1, cache=cache)
        try:
            job, enqueued = manager.submit(spec)
            assert not enqueued
            assert job.status == "done" and job.outcome_status == "cached"
            assert manager.executions == 0
            assert [e["event"] for e in job.events] == ["done"]
        finally:
            manager.stop()

    def test_failed_digest_can_be_resubmitted(self, tmp_path):
        calls = []

        def flaky(spec):
            calls.append(spec.digest)
            if len(calls) < 3:
                raise RuntimeError("injected")
            return execute_spec(spec)

        manager = JobManager(
            executors=1,
            retries=0,
            cache=ResultCache(tmp_path / "cache"),
            task_fn=flaky,
        )
        try:
            spec = make_spec()
            manager.submit(spec)
            job = wait_done(manager, spec.digest)
            assert job.status == "failed" and "injected" in (job.error or "")
            again, enqueued = manager.submit(spec)
            assert enqueued and again is job
            job = wait_done(manager, spec.digest)
            # second attempt also fails (len(calls) == 2), third succeeds
            _, enqueued = manager.submit(spec)
            assert enqueued
            job = wait_done(manager, spec.digest)
            assert job.status == "done"
            assert manager.executions == 1
        finally:
            manager.stop()

    def test_queue_overflow_raises_429_error(self, tmp_path):
        gate = threading.Event()

        def slow(spec):
            gate.wait(10.0)
            return execute_spec(spec)

        manager = JobManager(
            executors=1,
            max_queue=2,
            cache=ResultCache(tmp_path / "cache"),
            task_fn=slow,
        )
        try:
            # 1 running + 2 queued fills the pipeline; the 4th submission
            # must be rejected without registering anything
            specs = [make_spec(seed=100 + i) for i in range(4)]
            manager.submit(specs[0])
            deadline = time.monotonic() + 5.0
            while manager.stats()["queue_depth"] > 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            manager.submit(specs[1])
            manager.submit(specs[2])
            with pytest.raises(JobQueueFullError, match="queue full"):
                manager.submit(specs[3])
            assert manager.get(specs[3].digest) is None
        finally:
            gate.set()
            manager.stop()

    def test_stopped_manager_rejects_submissions(self, tmp_path):
        manager = JobManager(executors=1, cache=ResultCache(tmp_path / "cache"))
        manager.stop()
        with pytest.raises(ApiError, match="stopped"):
            manager.submit(make_spec())


class TestEvents:
    def test_event_log_shape(self, tmp_path):
        manager = JobManager(executors=1, cache=ResultCache(tmp_path / "cache"))
        try:
            spec = make_spec(label="evts")
            manager.submit(spec)
            wait_done(manager, spec.digest)
            events, done = manager.wait_events(spec.digest, 0, timeout=1.0)
            assert done
            assert [e["event"] for e in events] == [
                "queued", "running", "completed", "done",
            ]
            assert events[-1]["status"] == "completed"
            assert all(e["label"] == "evts" for e in events)
        finally:
            manager.stop()

    def test_retry_streams_at_one_worker(self, tmp_path):
        calls = []

        def fails_once(spec):
            calls.append(spec.digest)
            if len(calls) == 1:
                raise RuntimeError("injected transient failure")
            return execute_spec(spec)

        manager = JobManager(
            executors=1,
            retries=1,
            cache=ResultCache(tmp_path / "cache"),
            task_fn=fails_once,
        )
        try:
            spec = make_spec(label="flaky")
            manager.submit(spec)
            job = wait_done(manager, spec.digest)
            events, done = manager.wait_events(spec.digest, 0, timeout=1.0)
            assert done and job.status == "done" and job.attempts == 2
            assert [e["event"] for e in events] == [
                "queued", "running", "retry", "completed", "done",
            ]
            assert "injected transient failure" in events[2]["error"]
        finally:
            manager.stop()

    def test_wait_events_cursor_and_timeout(self, tmp_path):
        manager = JobManager(executors=1, cache=ResultCache(tmp_path / "cache"))
        try:
            spec = make_spec()
            manager.submit(spec)
            wait_done(manager, spec.digest)
            all_events, _ = manager.wait_events(spec.digest, 0, timeout=1.0)
            tail, done = manager.wait_events(spec.digest, 2, timeout=1.0)
            assert done and tail == all_events[2:]
            none_left, done = manager.wait_events(
                spec.digest, len(all_events), timeout=0.05
            )
            assert done and none_left == []
        finally:
            manager.stop()

    def test_unknown_digest_raises(self, tmp_path):
        manager = JobManager(executors=1, cache=ResultCache(tmp_path / "cache"))
        try:
            with pytest.raises(ApiError, match="unknown run"):
                manager.wait_events("0" * 64, 0, timeout=0.05)
        finally:
            manager.stop()


class TestStatsAndLedger:
    def test_stats_counts(self, tmp_path):
        manager = JobManager(executors=1, cache=ResultCache(tmp_path / "cache"))
        try:
            spec = make_spec()
            manager.submit(spec)
            wait_done(manager, spec.digest)
            stats = manager.stats()
            assert stats["jobs"]["done"] == 1
            assert stats["n_jobs"] == 1
            assert stats["executions"] == 1
            assert stats["max_queue"] == 64
            assert stats["cache"]["entries"] == 1
            assert stats["ledger"] is False
        finally:
            manager.stop()

    def test_ledger_ingestion(self, tmp_path):
        from repro.expdb import ExperimentDB

        db_path = tmp_path / "ledger.sqlite"
        manager = JobManager(
            executors=1, cache=ResultCache(tmp_path / "cache"), db=db_path
        )
        try:
            spec = make_spec(label="led")
            manager.submit(spec)
            wait_done(manager, spec.digest)
        finally:
            manager.stop()
        rows = ExperimentDB(db_path).runs()
        assert len(rows) == 1
        assert rows[0]["digest"] == spec.digest
        assert rows[0]["source"] == "api"
        assert rows[0]["status"] == "completed"


class TestResultSummary:
    def test_summary_fields(self):
        spec = make_spec()
        summary = result_summary(execute_spec(spec))
        assert summary["n_cycles"] == 600
        assert summary["tracked_messages"] > 0
        assert summary["mean_total_wait"] is not None
        assert len(summary["stage_means"]) == 2
        assert len(summary["stage_variances"]) == 2
