"""Batch runner: determinism, caching, fault tolerance, observability."""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.exec.cache import ResultCache
from repro.exec.runner import execute_spec, run_many
from repro.exec.spec import ExperimentSpec
from repro.obs import session
from repro.simulation.network import NetworkConfig

# ----------------------------------------------------------------------
# picklable task functions for fault injection (must be module-level so
# worker processes can import them by qualified name)

_FLAG_ENV = "REPRO_TEST_FAIL_FLAG_DIR"


def _flaky_task(spec):
    """Fail exactly once (across all processes) for the 'flaky' spec."""
    if spec.label == "flaky":
        flag = Path(os.environ[_FLAG_ENV]) / "tripped"
        if not flag.exists():
            flag.write_text("x")
            raise RuntimeError("injected transient failure")
    return execute_spec(spec)


def _doomed_task(spec):
    """Fail every attempt for the 'doomed' spec."""
    if spec.label == "doomed":
        raise RuntimeError("injected permanent failure")
    return execute_spec(spec)


def _doomed_task_for_last(spec):
    """Fail every attempt for the 'load-2' spec (summary() test)."""
    if spec.label == "load-2":
        raise RuntimeError("injected permanent failure")
    return execute_spec(spec)


def _sleepy_task(spec):
    """Hold the 'sleepy' spec well past any reasonable test timeout."""
    if spec.label == "sleepy":
        time.sleep(1.0)
    return execute_spec(spec)


def _slow_task(spec):
    """Take about 0.3 s; the 'sleepy' spec takes well past 0.5 s."""
    time.sleep(1.5 if spec.label == "sleepy" else 0.3)
    return execute_spec(spec)


def _flaky_or_doomed_task(spec):
    """'flaky' fails once (across all processes), 'doomed' every time."""
    return _doomed_task(spec) if spec.label == "doomed" else _flaky_task(spec)


#: the test process; a task may only kill a pool worker, never it
_TEST_PID = os.getpid()


def _exit_worker() -> None:
    if os.getpid() == _TEST_PID:
        raise RuntimeError("refusing to kill the test process")
    os._exit(3)


def _dies_once_task(spec):
    """Kill the worker running the 'dying' spec, on its first attempt only."""
    if spec.label == "dying":
        flag = Path(os.environ[_FLAG_ENV]) / "died"
        if not flag.exists():
            flag.write_text("x")
            _exit_worker()
    return execute_spec(spec)


def _always_dies_task(spec):
    """Kill the worker running the 'dying' spec, on every attempt."""
    if spec.label == "dying":
        _exit_worker()
    return execute_spec(spec)


# ----------------------------------------------------------------------


def make_specs(n=6, n_cycles=600, seeded=True):
    loads = [0.15 + 0.08 * i for i in range(n)]
    return [
        ExperimentSpec(
            config=NetworkConfig(
                k=2,
                n_stages=3,
                p=p,
                topology="random",
                width=16,
                seed=(100 + i) if seeded else None,
            ),
            n_cycles=n_cycles,
            label=f"load-{i}",
        )
        for i, p in enumerate(loads)
    ]


def relabel(spec, label):
    return ExperimentSpec(config=spec.config, n_cycles=spec.n_cycles, label=label)


def events_by_spec(events):
    """``index -> [(event, attempts), ...]`` in emission order."""
    out = {}
    for event in events:
        out.setdefault(event["index"], []).append((event["event"], event["attempts"]))
    return out


def assert_batches_identical(a, b):
    assert a.n_tasks == b.n_tasks
    for oa, ob in zip(a.outcomes, b.outcomes, strict=True):
        assert oa.spec.digest == ob.spec.digest
        assert np.array_equal(oa.result.stage_means, ob.result.stage_means)
        assert np.array_equal(oa.result.stage_variances, ob.result.stage_variances)
        assert np.array_equal(oa.result.stage_counts, ob.result.stage_counts)
        assert np.array_equal(
            oa.result.tracked.complete_rows(), ob.result.tracked.complete_rows()
        )
        assert oa.result.completed == ob.result.completed


class TestDeterminism:
    def test_workers_4_bit_identical_to_workers_1(self):
        # ISSUE acceptance: parallel statistics == serial statistics
        specs = make_specs()
        serial = run_many(specs, workers=1)
        parallel = run_many(specs, workers=4)
        assert serial.n_simulated == parallel.n_simulated == len(specs)
        assert_batches_identical(serial, parallel)

    def test_unseeded_specs_identical_across_worker_counts(self):
        # seeds must come from batch position, not execution order
        specs = make_specs(n=4, seeded=False)
        serial = run_many(specs, workers=1, base_seed=77)
        parallel = run_many(specs, workers=3, base_seed=77)
        assert_batches_identical(serial, parallel)
        other_base = run_many(specs, workers=1, base_seed=78)
        assert not np.array_equal(
            serial.outcomes[0].result.stage_means,
            other_base.outcomes[0].result.stage_means,
        )

    def test_outcomes_in_spec_order(self):
        specs = make_specs(n=5)
        batch = run_many(specs, workers=2)
        assert [o.index for o in batch.outcomes] == list(range(5))
        assert [o.spec.label for o in batch.outcomes] == [s.label for s in specs]


class TestCaching:
    def test_repeated_batch_is_all_hits(self, tmp_path):
        # ISSUE acceptance: identical repeat => zero new simulations
        specs = make_specs(n=4)
        cache = ResultCache(tmp_path / "cache")
        first = run_many(specs, workers=1, cache=cache)
        assert (first.n_simulated, first.n_cached) == (4, 0)
        second = run_many(specs, workers=1, cache=cache)
        assert (second.n_simulated, second.n_cached) == (0, 4)
        assert all(o.status == "cached" and o.attempts == 0 for o in second.outcomes)
        assert_batches_identical(first, second)

    def test_cache_shared_between_serial_and_parallel(self, tmp_path):
        specs = make_specs(n=4)
        cache = ResultCache(tmp_path / "cache")
        first = run_many(specs, workers=2, cache=cache)
        assert first.n_simulated == 4
        second = run_many(specs, workers=1, cache=cache)
        assert (second.n_simulated, second.n_cached) == (0, 4)
        assert_batches_identical(first, second)

    def test_partial_hits_only_simulate_the_new_specs(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_many(make_specs(n=2), cache=cache)
        batch = run_many(make_specs(n=4), cache=cache)
        assert (batch.n_simulated, batch.n_cached) == (2, 2)
        assert [o.status for o in batch.outcomes] == [
            "cached", "cached", "completed", "completed",
        ]


class TestFaultTolerance:
    def test_transient_failure_is_retried(self, tmp_path, monkeypatch):
        monkeypatch.setenv(_FLAG_ENV, str(tmp_path))
        specs = make_specs(n=4)
        specs[2] = ExperimentSpec(
            config=specs[2].config, n_cycles=specs[2].n_cycles, label="flaky"
        )
        batch = run_many(specs, workers=2, retries=1, task_fn=_flaky_task)
        assert batch.n_failed == 0
        assert batch.outcomes[2].attempts == 2
        assert all(o.ok for o in batch.outcomes)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_permanent_failure_bounded_then_reported(self, workers):
        # ISSUE acceptance: a sick task is retried up to the bound, then
        # reported failed while every other task still completes
        specs = make_specs(n=4)
        specs[1] = ExperimentSpec(
            config=specs[1].config, n_cycles=specs[1].n_cycles, label="doomed"
        )
        batch = run_many(specs, workers=workers, retries=2, task_fn=_doomed_task)
        doomed = batch.outcomes[1]
        assert doomed.status == "failed"
        assert doomed.attempts == 3  # 1 initial + 2 retries
        assert "injected permanent failure" in doomed.error
        assert doomed.result is None
        others = [o for i, o in enumerate(batch.outcomes) if i != 1]
        assert all(o.status == "completed" for o in others)
        assert batch.n_failed == 1 and batch.n_simulated == 3
        with pytest.raises(ExecutionError, match="doomed"):
            batch.raise_on_failure()
        assert [r is None for r in batch.results()] == [False, True, False, False]

    def test_retries_zero_means_single_attempt(self):
        specs = make_specs(n=2)
        specs[0] = ExperimentSpec(
            config=specs[0].config, n_cycles=specs[0].n_cycles, label="doomed"
        )
        batch = run_many(specs, workers=1, retries=0, task_fn=_doomed_task)
        assert batch.outcomes[0].status == "failed"
        assert batch.outcomes[0].attempts == 1

    def test_timeout_fails_slow_task_but_not_batch(self):
        specs = make_specs(n=2)
        specs[0] = ExperimentSpec(
            config=specs[0].config, n_cycles=specs[0].n_cycles, label="sleepy"
        )
        batch = run_many(
            specs, workers=2, retries=0, timeout=0.25, task_fn=_sleepy_task,
        )
        assert batch.outcomes[0].status == "failed"
        assert "timeout" in batch.outcomes[0].error
        assert batch.outcomes[1].status == "completed"

    def test_deadline_starts_with_the_job(self):
        """Eight 0.3-s jobs on two workers take about 1.2 s in all, but
        each job's 0.5-s deadline runs from its own start: none expires."""
        specs = make_specs(n=8, n_cycles=1_000)
        batch = run_many(specs, workers=2, retries=0, timeout=0.5, task_fn=_slow_task)
        assert [o.status for o in batch.outcomes] == ["completed"] * 8

    def test_job_past_its_deadline_still_fails(self):
        specs = make_specs(n=8, n_cycles=1_000)
        specs[3] = relabel(specs[3], "sleepy")
        batch = run_many(specs, workers=2, retries=0, timeout=0.5, task_fn=_slow_task)
        assert batch.outcomes[3].status == "failed"
        assert "timeout" in batch.outcomes[3].error
        others = [o.status for i, o in enumerate(batch.outcomes) if i != 3]
        assert others == ["completed"] * 7

    def test_failed_tasks_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = make_specs(n=2)
        specs[0] = ExperimentSpec(
            config=specs[0].config, n_cycles=specs[0].n_cycles, label="doomed"
        )
        run_many(specs, workers=1, retries=0, cache=cache, task_fn=_doomed_task)
        assert len(cache.entries()) == 1  # only the healthy task

    def test_input_validation(self):
        with pytest.raises(ExecutionError):
            run_many(make_specs(n=1), workers=0)
        with pytest.raises(ExecutionError):
            run_many(make_specs(n=1), retries=-1)


class TestOneDispatcher:
    """Serial and pooled batches share one retry, failure and event path."""

    @staticmethod
    def run_sick_batch(flag_dir, monkeypatch, workers):
        flag_dir.mkdir()
        monkeypatch.setenv(_FLAG_ENV, str(flag_dir))
        specs = make_specs(n=4)
        specs[1] = relabel(specs[1], "flaky")
        specs[2] = relabel(specs[2], "doomed")
        events = []
        batch = run_many(
            specs, workers=workers, retries=1, progress=events.append,
            task_fn=_flaky_or_doomed_task,
        )
        return batch, events_by_spec(events)

    def test_workers_1_and_2_agree_on_retries_and_events(self, tmp_path, monkeypatch):
        serial, serial_events = self.run_sick_batch(tmp_path / "w1", monkeypatch, 1)
        pooled, pooled_events = self.run_sick_batch(tmp_path / "w2", monkeypatch, 2)
        expected = [("completed", 1), ("completed", 2), ("failed", 2), ("completed", 1)]
        assert [(o.status, o.attempts) for o in serial.outcomes] == expected
        assert [(o.status, o.attempts) for o in pooled.outcomes] == expected
        assert serial_events == pooled_events
        assert serial_events == {
            0: [("completed", 1)],
            1: [("retry", 1), ("completed", 2)],
            2: [("retry", 1), ("failed", 2)],
            3: [("completed", 1)],
        }
        for batch in (serial, pooled):
            assert "injected permanent failure" in batch.outcomes[2].error
        for i in (0, 1, 3):
            a, b = serial.outcomes[i].result, pooled.outcomes[i].result
            assert np.array_equal(a.stage_means, b.stage_means)
            assert np.array_equal(a.tracked.complete_rows(), b.tracked.complete_rows())


class TestWorkerDeath:
    """A worker that dies fails the jobs its pool held, never the batch."""

    def test_dead_worker_is_retried_on_a_fresh_pool(self, tmp_path, monkeypatch):
        monkeypatch.setenv(_FLAG_ENV, str(tmp_path))
        specs = make_specs(n=4)
        specs[1] = relabel(specs[1], "dying")
        events = []
        batch = run_many(
            specs, workers=2, retries=1, progress=events.append,
            task_fn=_dies_once_task,
        )
        assert (tmp_path / "died").exists()
        assert [o.status for o in batch.outcomes] == ["completed"] * 4
        assert batch.outcomes[1].attempts == 2
        assert all(o.attempts in (1, 2) for o in batch.outcomes)
        (retry,) = [e for e in events if e["event"] == "retry" and e["index"] == 1]
        assert "BrokenProcessPool" in retry["error"]
        assert_batches_identical(batch, run_many(specs, workers=1))

    def test_always_dying_spec_fails_without_aborting(self):
        specs = make_specs(n=4)
        specs[1] = relabel(specs[1], "dying")
        batch = run_many(specs, workers=2, retries=0, task_fn=_always_dies_task)
        dying = batch.outcomes[1]
        assert (dying.status, dying.attempts) == ("failed", 1)
        assert "BrokenProcessPool" in dying.error
        for o in batch.outcomes:
            # specs in flight in the broken pool spent their one attempt
            assert o.status == "completed" or "BrokenProcessPool" in o.error

    def test_dead_shard_worker_is_retried_on_a_fresh_pool(self, tmp_path, monkeypatch):
        from repro.exec import sharded
        from repro.simulation import streamed

        real = streamed.run_streamed
        flag = tmp_path / "died"

        def dies_once(*args, **kwargs):
            if not flag.exists():
                flag.write_text("x")
                _exit_worker()
            return real(*args, **kwargs)

        monkeypatch.setattr(streamed, "run_streamed", dies_once)
        specs = make_specs(n=4)
        # a one-byte budget puts every spec in a shard of its own: four
        # pool jobs
        monkeypatch.setattr(sharded, "DEFAULT_SHARD_MEM", 1)
        batch = run_many(specs, workers=2, retries=1, vectorize=True)
        assert flag.exists()
        assert [o.status for o in batch.outcomes] == ["completed"] * 4
        assert sum(o.attempts == 2 for o in batch.outcomes) >= 1
        monkeypatch.setattr(streamed, "run_streamed", real)
        assert_batches_identical(batch, run_many(specs, workers=1))


class TestObservability:
    def test_batch_summary_counts(self, tmp_path):
        specs = make_specs(n=3)
        cache = ResultCache(tmp_path / "cache")
        run_many(specs[:1], workers=1, cache=cache)  # pre-warm one entry
        batch = run_many(specs, workers=1, cache=cache, retries=0,
                         task_fn=_doomed_task_for_last)
        summary = batch.summary()
        assert summary["n_tasks"] == 3
        assert summary["statuses"] == {"cached": 1, "completed": 1, "failed": 1}
        assert summary["cache_hits"] == 1
        assert summary["cache_misses"] == 2
        # cached task: 0 attempts; completed: 1; failed at retries=0: 1
        assert summary["total_attempts"] == 2
        assert summary["workers"] == 1
        assert summary["elapsed_seconds"] == batch.elapsed_seconds

    def test_progress_events(self):
        events = []
        specs = make_specs(n=3)
        run_many(specs, workers=1, progress=events.append)
        assert len(events) == 3
        assert {e["event"] for e in events} == {"completed"}
        assert {e["label"] for e in events} == {s.label for s in specs}
        assert all(len(e["digest"]) == 12 for e in events)

    def test_retry_and_failure_events(self, tmp_path, monkeypatch):
        monkeypatch.setenv(_FLAG_ENV, str(tmp_path))
        events = []
        specs = [
            ExperimentSpec(
                config=make_specs(n=1)[0].config, n_cycles=600, label="flaky"
            )
        ]
        run_many(specs, workers=1, retries=1, progress=events.append,
                 task_fn=_flaky_task)
        assert [e["event"] for e in events] == ["retry", "completed"]
        assert [e["attempts"] for e in events] == [1, 2]

    def test_broken_progress_sink_does_not_abort(self):
        def bad_sink(event):
            raise RuntimeError("sink is broken")

        with pytest.warns(RuntimeWarning, match="progress callback failed"):
            batch = run_many(make_specs(n=2), workers=1, progress=bad_sink)
        assert batch.n_simulated == 2

    def test_broken_progress_sink_warns_per_event_and_results_survive(self):
        """Fault injection: a sink that dies on every event must leave the
        batch identical to a sink-free run, with one warning per outcome."""
        calls = []

        def bad_sink(event):
            calls.append(event["event"])
            raise ValueError(f"sink rejects {event['event']}")

        specs = make_specs(n=3)
        with pytest.warns(RuntimeWarning, match="batch continues") as caught:
            batch = run_many(specs, workers=1, progress=bad_sink)
        clean = run_many(specs, workers=1)
        assert calls == ["completed"] * 3
        assert len(caught) == 3
        assert batch.n_simulated == 3 and batch.n_failed == 0
        for noisy, quiet in zip(batch.outcomes, clean.outcomes, strict=True):
            assert noisy.status == quiet.status == "completed"
            assert noisy.result is not None and quiet.result is not None
            assert noisy.result.stage_means == pytest.approx(quiet.result.stage_means)

    def test_exec_batch_manifest(self, tmp_path):
        specs = make_specs(n=3)
        specs[1] = ExperimentSpec(
            config=specs[1].config, n_cycles=specs[1].n_cycles, label="doomed"
        )
        with session(tmp_path / "obs", profile=False):
            run_many(specs, workers=1, retries=0, task_fn=_doomed_task)
        (manifest,) = sorted((tmp_path / "obs").glob("exec-batch-*.json"))
        doc = json.loads(manifest.read_text())
        assert doc["kind"] == "exec_batch"
        assert doc["n_tasks"] == 3
        assert doc["counts"] == {"completed": 2, "cached": 0, "failed": 1}
        statuses = [t["status"] for t in doc["tasks"]]
        assert statuses == ["completed", "failed", "completed"]
        assert doc["tasks"][1]["error"]
        assert all(len(t["digest"]) == 64 for t in doc["tasks"])

    def test_pool_workers_write_no_run_manifests(self, tmp_path):
        # forked workers inherit the session; if they wrote run-NNNN
        # manifests their process-local sequence numbers would collide
        with session(tmp_path / "obs", profile=False):
            batch = run_many(make_specs(n=4), workers=2)
        assert batch.n_simulated == 4
        out = tmp_path / "obs"
        assert sorted(p.name for p in out.glob("exec-batch-*.json"))
        assert list(out.glob("run-*.manifest.json")) == []
