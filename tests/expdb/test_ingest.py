"""Ingestion bridges: run_many batches, manifests, BENCH artifacts."""

import json

import pytest

from repro.errors import ExperimentDBError
from repro.exec.runner import execute_spec, run_many
from repro.exec.spec import ExperimentSpec
from repro.expdb.db import ExperimentDB
from repro.expdb.ingest import (
    bench_record_from_artifact,
    ingest_batch,
    ingest_bench_file,
    ingest_manifest,
    ingest_session_dir,
    provenance,
)
from repro.obs.manifest import build_manifest
from repro.simulation.network import NetworkConfig


def make_specs(n=3, n_cycles=600):
    return [
        ExperimentSpec(
            config=NetworkConfig(
                k=2, n_stages=3, p=0.2 + 0.1 * i, topology="random",
                width=16, seed=100 + i,
            ),
            n_cycles=n_cycles,
            warmup=100,
            label=f"load-{i}",
        )
        for i in range(n)
    ]


def _boom(spec):
    raise RuntimeError("injected failure")


class TestBatchIngestion:
    def test_every_outcome_lands_in_the_ledger(self, tmp_path):
        db = ExperimentDB(tmp_path / "x.sqlite")
        batch = run_many(make_specs(), workers=1)
        assert ingest_batch(db, batch, created_unix=10.0) == 3
        rows = db.runs()
        assert len(rows) == 3
        by_label = {row["label"]: row for row in rows}
        assert set(by_label) == {"load-0", "load-1", "load-2"}
        row = by_label["load-0"]
        assert row["status"] == "completed"
        assert row["engine"] == "serial"
        assert row["k"] == 2 and row["n_stages"] == 3 and row["width"] == 16
        assert row["digest"] == batch.outcomes[0].spec.digest
        assert len(json.loads(row["stage_means"])) == 3
        assert row["throughput"] > 0
        assert row["created_unix"] == 10.0
        assert row["repro_version"] and row["platform"] and row["numpy_version"]

    def test_failed_outcomes_are_recorded_with_error(self, tmp_path):
        db = ExperimentDB(tmp_path / "x.sqlite")
        batch = run_many(make_specs(n=1), workers=1, retries=0, task_fn=_boom)
        ingest_batch(db, batch)
        (row,) = db.runs()
        assert row["status"] == "failed"
        assert "injected failure" in row["error"]
        assert row["stage_means"] is None

    def test_run_many_db_hook_ingests(self, tmp_path):
        db = ExperimentDB(tmp_path / "x.sqlite")
        run_many(make_specs(), workers=1, db=db)
        assert db.counts()["runs"] == 3

    def test_db_hook_is_a_batch_noop(self, tmp_path):
        """Acceptance: the BatchResult is identical with and without a DB."""
        specs = make_specs()
        plain = run_many(specs, workers=1)
        db = ExperimentDB(tmp_path / "x.sqlite")
        recorded = run_many(specs, workers=1, db=db)
        assert db.counts()["runs"] == len(specs)
        assert plain.n_tasks == recorded.n_tasks
        for a, b in zip(plain.outcomes, recorded.outcomes, strict=True):
            assert a.spec.digest == b.spec.digest
            assert a.status == b.status
            assert a.attempts == b.attempts
            assert (a.result.stage_means == b.result.stage_means).all()
            assert a.result.completed == b.result.completed
        summary_a, summary_b = plain.summary(), recorded.summary()
        summary_a.pop("elapsed_seconds"), summary_b.pop("elapsed_seconds")
        assert summary_a == summary_b

    def test_broken_ledger_does_not_fail_the_batch(self, tmp_path, capsys):
        db = ExperimentDB(tmp_path / "x.sqlite")
        db.close()  # writes on a closed handle raise
        batch = run_many(make_specs(n=1), workers=1, db=db)
        assert batch.n_simulated == 1
        assert "experiment-db ingestion failed" in capsys.readouterr().err

    def test_double_ingest_exports_byte_identically(self, tmp_path):
        """Acceptance: re-ingesting a batch never changes the export."""
        db = ExperimentDB(tmp_path / "x.sqlite")
        batch = run_many(make_specs(), workers=1)
        ingest_batch(db, batch, created_unix=10.0)
        first = db.export()
        ingest_batch(db, batch, created_unix=99.0)
        assert db.export() == first

    def test_engine_column_is_the_one_digest_family(self, tmp_path):
        """Stacked and serial runs of a spec land as one digest-keyed row
        of the one digest family."""
        db = ExperimentDB(tmp_path / "x.sqlite")
        ingest_batch(db, run_many(make_specs(), vectorize=True), created_unix=1.0)
        ingest_batch(db, run_many(make_specs()), created_unix=2.0)
        rows = db.runs()
        assert len(rows) == 3
        assert {row["engine"] for row in rows} == {"serial"}

    def test_provenance_fields_are_populated(self):
        prov = provenance()
        assert prov["repro_version"]
        assert prov["platform"]
        assert prov["numpy_version"]


class TestManifestIngestion:
    def _manifest(self, spec):
        result = execute_spec(spec)
        return build_manifest(result, run_id="run-0001", elapsed_seconds=1.5)

    def test_manifest_round_trip(self, tmp_path):
        db = ExperimentDB(tmp_path / "x.sqlite")
        (spec,) = make_specs(n=1)
        manifest = self._manifest(spec)
        digest = ingest_manifest(db, manifest)
        (row,) = db.runs()
        assert row["digest"] == digest
        assert row["source"] == "manifest"
        assert row["label"] == "run-0001"
        assert row["status"] == "completed"
        assert row["platform"] == manifest["platform"]
        assert row["numpy_version"] == manifest["numpy_version"]
        assert json.loads(row["stage_means"]) == manifest["stage_means"]

    def test_non_run_document_is_rejected(self, tmp_path):
        db = ExperimentDB(tmp_path / "x.sqlite")
        with pytest.raises(ExperimentDBError, match="not a run manifest"):
            ingest_manifest(db, {"kind": "replication-batch"})

    def test_session_dir_ingests_runs_and_skips_the_rest(self, tmp_path):
        db = ExperimentDB(tmp_path / "x.sqlite")
        (spec,) = make_specs(n=1)
        session = tmp_path / "session"
        session.mkdir()
        (session / "run-0001.manifest.json").write_text(
            json.dumps(self._manifest(spec))
        )
        (session / "batch-0001.json").write_text(json.dumps({"kind": "exec-batch"}))
        (session / "broken.json").write_text("{not json")
        ingested, skipped = ingest_session_dir(db, session)
        assert (ingested, skipped) == (1, 2)
        assert db.counts()["runs"] == 1

    def test_missing_directory_raises(self, tmp_path):
        db = ExperimentDB(tmp_path / "x.sqlite")
        with pytest.raises(ExperimentDBError, match="not a directory"):
            ingest_session_dir(db, tmp_path / "nope")


class TestBenchIngestion:
    REPLICAS = {
        "scenario": "k=2 n_stages=6 width=8 p=0.5",
        "n_replicas": 32,
        "n_cycles": 512,
        "serial_seconds": 2.1,
        "batched_seconds": 0.3,
        "speedup": 7.0,
    }
    SWEEP = {
        "scenario": "load sweep",
        "n_points": 6,
        "per_load_batched_seconds": 1.2,
        "stacked_seconds": 0.35,
        "speedup": 3.4,
    }
    EXEC = {
        "scenario": "8 load points",
        "n_tasks": 8,
        "workers": 4,
        "serial_seconds": 8.0,
        "parallel_seconds": 3.1,
        "speedup": 2.58,
    }
    BACKEND = {
        "scenario": "k=2 n_stages=6 width=8 p=0.5",
        "n_replicas": 64,
        "n_cycles": 5000,
        "numpy_seconds": 4.2,
        "numba_seconds": 0.9,
        "speedup": 4.67,
        "usable_cpus": 8,
    }

    @pytest.mark.parametrize(
        "filename,artifact,baseline,measured",
        [
            ("BENCH_replicas.json", REPLICAS, 2.1, 0.3),
            ("BENCH_sweep.json", SWEEP, 1.2, 0.35),
            ("BENCH_exec.json", EXEC, 8.0, 3.1),
            ("BENCH_backend.json", BACKEND, 4.2, 0.9),
        ],
    )
    def test_all_shipped_formats(
        self, tmp_path, filename, artifact, baseline, measured
    ):
        db = ExperimentDB(tmp_path / "x.sqlite")
        path = tmp_path / filename
        path.write_text(json.dumps(artifact))
        (series,) = ingest_bench_file(db, path, created_unix=3.0)
        assert series == filename[len("BENCH_"):-len(".json")]
        (point,) = db.bench_series(series)
        assert point["baseline_seconds"] == baseline
        assert point["measured_seconds"] == measured
        assert point["speedup"] == artifact["speedup"]
        assert json.loads(point["detail_json"]) == artifact

    def test_reingest_is_idempotent(self, tmp_path):
        db = ExperimentDB(tmp_path / "x.sqlite")
        path = tmp_path / "BENCH_replicas.json"
        path.write_text(json.dumps(self.REPLICAS))
        ingest_bench_file(db, path, created_unix=3.0)
        ingest_bench_file(db, path, created_unix=4.0)
        assert db.counts()["benchmarks"] == 1

    def test_artifact_without_speedup_is_rejected(self):
        with pytest.raises(ExperimentDBError, match="no 'speedup'"):
            bench_record_from_artifact("replicas", {"serial_seconds": 1.0})

    def test_unreadable_file_is_rejected(self, tmp_path):
        db = ExperimentDB(tmp_path / "x.sqlite")
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{not json")
        with pytest.raises(ExperimentDBError, match="cannot read"):
            ingest_bench_file(db, bad)

    def test_json_list_ingests_every_point(self, tmp_path):
        db = ExperimentDB(tmp_path / "x.sqlite")
        path = tmp_path / "BENCH_replicas.json"
        second = dict(self.REPLICAS, speedup=6.5, batched_seconds=0.32)
        path.write_text(json.dumps([self.REPLICAS, second]))
        assert ingest_bench_file(db, path) == ["replicas", "replicas"]
        assert db.counts()["benchmarks"] == 2
