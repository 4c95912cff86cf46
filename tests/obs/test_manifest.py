"""Run manifest + JSONL export + observation session tests."""

import json

import pytest

from repro._version import __version__
from repro.errors import SimulationError
from repro.obs.manifest import (
    MANIFEST_REQUIRED_FIELDS,
    MANIFEST_SCHEMA_VERSION,
    MANIFEST_V2_FIELDS,
    MANIFEST_V3_FIELDS,
    build_manifest,
    config_to_jsonable,
    validate_manifest,
    validate_metrics_record,
    write_manifest,
    write_metrics_jsonl,
)
from repro.obs.metrics import MetricsCollector
from repro.obs.session import current_session, session
from repro.simulation.network import NetworkConfig, NetworkSimulator
from repro.simulation.replication import replicate


def run_with_metrics(n_cycles=300, **config_kwargs):
    cfg = NetworkConfig(k=2, n_stages=3, p=0.4, seed=7, **config_kwargs)
    sim = NetworkSimulator(cfg)
    collector = MetricsCollector(stride=4)
    sim.attach_metrics(collector)
    result = sim.run(n_cycles, warmup=0)
    return result, collector


class TestManifest:
    def test_build_covers_required_fields(self):
        result, _ = run_with_metrics()
        manifest = build_manifest(result, run_id="run-0001", elapsed_seconds=1.5)
        for field in MANIFEST_REQUIRED_FIELDS:
            assert field in manifest
        validate_manifest(manifest)
        assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION
        assert manifest["repro_version"] == __version__
        assert manifest["config"]["seed"] == 7
        assert manifest["counts"]["completed"] == result.completed
        assert len(manifest["stage_means"]) == 3

    def test_config_serialises_service_model_by_repr(self):
        from repro.service import GeometricService

        cfg = NetworkConfig(
            k=2, n_stages=3, p=0.3, service=GeometricService(0.5), seed=1
        )
        as_json = config_to_jsonable(cfg)
        json.dumps(as_json)  # round-trips through the json encoder
        assert "Geometric" in as_json["service"]

    def test_write_and_reload(self, tmp_path):
        result, _ = run_with_metrics()
        manifest = build_manifest(result, run_id="run-0001")
        path = write_manifest(tmp_path / "m.json", manifest)
        reloaded = json.loads(path.read_text())
        validate_manifest(reloaded)
        assert reloaded["n_cycles"] == 300

    def test_provenance_fields_are_populated(self):
        result, _ = run_with_metrics()
        manifest = build_manifest(result, run_id="run-0001")
        assert manifest["schema_version"] == 3
        assert manifest["platform"]  # e.g. "Linux-..."
        assert manifest["python_version"].count(".") == 2
        assert manifest["numpy_version"]
        assert manifest["backend"] == "numpy"  # the stage-wise pass, the one evaluator

    def test_validate_accepts_v1_documents(self):
        """Manifests written before the provenance block must still load."""
        result, _ = run_with_metrics()
        manifest = build_manifest(result, run_id="run-0001")
        manifest["schema_version"] = 1
        for field in (*MANIFEST_V2_FIELDS, *MANIFEST_V3_FIELDS):
            del manifest[field]
        validate_manifest(manifest)  # no error

    def test_validate_accepts_v2_documents(self):
        """v2 manifests (pre-backend) must still load without v3 fields."""
        result, _ = run_with_metrics()
        manifest = build_manifest(result, run_id="run-0001")
        manifest["schema_version"] = 2
        for field in MANIFEST_V3_FIELDS:
            del manifest[field]
        validate_manifest(manifest)  # no error

    def test_validate_rejects_v1_claiming_v2(self):
        """A v2 document is held to the v2 field set."""
        result, _ = run_with_metrics()
        manifest = build_manifest(result, run_id="run-0001")
        manifest["schema_version"] = 2
        del manifest["backend"]  # v2 documents need no backend field
        del manifest["platform"]
        with pytest.raises(SimulationError, match="missing required"):
            validate_manifest(manifest)

    def test_validate_rejects_v3_missing_backend(self):
        """A current document is held to the full v3 field set."""
        result, _ = run_with_metrics()
        manifest = build_manifest(result, run_id="run-0001")
        del manifest["backend"]
        with pytest.raises(SimulationError, match="missing required"):
            validate_manifest(manifest)

    def test_validate_rejects_newer_schema(self):
        result, _ = run_with_metrics()
        manifest = build_manifest(result, run_id="run-0001")
        manifest["schema_version"] = MANIFEST_SCHEMA_VERSION + 1
        with pytest.raises(SimulationError, match="schema_version"):
            validate_manifest(manifest)

    def test_validate_rejects_missing_fields(self):
        with pytest.raises(SimulationError):
            validate_manifest({"schema_version": MANIFEST_SCHEMA_VERSION})

    def test_write_rejects_invalid_manifest(self, tmp_path):
        with pytest.raises(SimulationError):
            write_manifest(tmp_path / "bad.json", {"kind": "run"})


class TestMetricsJsonl:
    def test_header_plus_records(self, tmp_path):
        result, collector = run_with_metrics()
        path = write_metrics_jsonl(tmp_path / "m.jsonl", collector)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "metrics_header"
        assert header["samples"] == collector.n_samples
        assert len(lines) == 1 + collector.n_samples
        for line in lines[1:]:
            validate_metrics_record(json.loads(line), n_stages=3)

    def test_records_strictly_standard_json(self, tmp_path):
        result, collector = run_with_metrics()
        path = write_metrics_jsonl(tmp_path / "m.jsonl", collector)
        for line in path.read_text().splitlines():
            json.loads(line)  # raises on NaN/Infinity tokens


class TestObservationSession:
    def test_simulator_auto_instruments_inside_session(self, tmp_path):
        with session(tmp_path, stride=8) as sess:
            assert current_session() is sess
            sim = NetworkSimulator(NetworkConfig(k=2, n_stages=3, p=0.4, seed=9))
            assert sim.metrics is not None
            result = sim.run(300, warmup=0)
        assert current_session() is None
        assert result.manifest_path is not None
        manifest = json.loads((tmp_path / "run-0001.manifest.json").read_text())
        validate_manifest(manifest)
        assert manifest["metrics_file"] == "run-0001.metrics.jsonl"
        assert (tmp_path / "run-0001.metrics.jsonl").exists()
        assert manifest["timings"]  # session enables phase timers

    def test_run_ids_increment(self, tmp_path):
        with session(tmp_path) as sess:
            for seed in (1, 2):
                NetworkSimulator(
                    NetworkConfig(k=2, n_stages=3, p=0.4, seed=seed)
                ).run(200, warmup=0)
            assert [p.name for p in sess.manifests] == [
                "run-0001.manifest.json",
                "run-0002.manifest.json",
            ]

    def test_sessions_restore_previous_on_exit(self, tmp_path):
        with session(tmp_path / "outer") as outer:
            with session(tmp_path / "inner"):
                assert current_session() is not outer
            assert current_session() is outer

    def test_outside_session_no_artifacts(self, tmp_path):
        result = NetworkSimulator(
            NetworkConfig(k=2, n_stages=3, p=0.4, seed=9)
        ).run(200, warmup=0)
        assert result.manifest_path is None
        assert list(tmp_path.iterdir()) == []

    def test_replication_batch_record(self, tmp_path):
        cfg = NetworkConfig(k=2, n_stages=3, p=0.4)
        with session(tmp_path):
            results = replicate(cfg, n_replications=3, n_cycles=300, warmup=0)
        batch = json.loads((tmp_path / "batch-0001.json").read_text())
        assert batch["kind"] == "replication_batch"
        assert batch["n_replications"] == 3
        assert len(batch["run_manifests"]) == 3
        assert len(batch["seeds"]) == len(set(batch["seeds"])) == 3
        for name in batch["run_manifests"]:
            validate_manifest(json.loads((tmp_path / name).read_text()))
        assert len(results) == 3
