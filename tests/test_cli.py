"""CLI surface tests (fast cycle counts)."""

import json

import pytest

from repro.cli import _run_table, build_parser, main


class TestParser:
    def test_table_command(self):
        args = build_parser().parse_args(["table", "I", "--cycles", "2500"])
        assert args.command == "table"
        assert args.id == "I"
        assert args.cycles == 2500

    def test_figure_command(self):
        args = build_parser().parse_args(["figure", "5", "--stages", "3"])
        assert args.id == 5
        assert args.stages == 3

    def test_unknown_table_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "XIII"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExecution:
    def test_table_I_runs(self, capsys):
        assert main(["table", "I", "--cycles", "2500"]) == 0
        out = capsys.readouterr().out
        assert "TABLE I" in out
        assert "ESTIMATE" in out

    def test_totals_table_runs(self, capsys):
        assert main(["table", "VII", "--cycles", "2500"]) == 0
        out = capsys.readouterr().out
        assert "TABLE VII" in out

    def test_figure_runs(self, capsys):
        assert main(["figure", "3", "--stages", "3", "--cycles", "2500"]) == 0
        assert "Figure 3" in capsys.readouterr().out

    def test_seed_override(self, capsys):
        assert main(["table", "VI", "--cycles", "2500", "--seed", "9"]) == 0
        assert "TABLE VI" in capsys.readouterr().out

    def test_sweep_runs(self, capsys):
        assert main(["sweep", "load", "--cycles", "3000"]) == 0
        out = capsys.readouterr().out
        assert "load sweep" in out
        assert "p=0.2" in out

    def test_sweep_kind_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "bogus"])


class TestCyclesOverride:
    def test_explicit_cycles_zero_not_ignored(self, monkeypatch):
        """`--cycles 0` must reach the generator, not fall back silently."""
        import repro.analysis.tables as tables

        captured = {}

        class FakeTable:
            def to_text(self):
                return "TABLE I (fake)"

        def fake_table_I(**kwargs):
            captured.update(kwargs)
            return FakeTable()

        monkeypatch.setattr(tables, "table_I", fake_table_I)
        _run_table("I", 0, None)
        assert captured == {"n_cycles": 0}

    def test_omitted_cycles_leaves_default(self, monkeypatch):
        import repro.analysis.tables as tables

        captured = {}

        class FakeTable:
            def to_text(self):
                return "TABLE I (fake)"

        def fake_table_I(**kwargs):
            captured.update(kwargs)
            return FakeTable()

        monkeypatch.setattr(tables, "table_I", fake_table_I)
        _run_table("I", None, None)
        assert "n_cycles" not in captured


class TestBatchCommand:
    @staticmethod
    def write_spec_file(path, n=2):
        from repro.exec import ExperimentSpec
        from repro.simulation.network import NetworkConfig

        specs = [
            ExperimentSpec(
                NetworkConfig(
                    k=2, n_stages=3, p=0.3 + 0.2 * i, topology="random",
                    width=16, seed=50 + i,
                ),
                n_cycles=800,
                label=f"cli-{i}",
            )
            for i in range(n)
        ]
        path.write_text(json.dumps([s.to_jsonable() for s in specs]))

    def test_parser_defaults(self):
        args = build_parser().parse_args(["batch"])
        assert args.scenarios == "smoke"
        assert args.retries == 1
        assert not args.no_cache and not args.require_cached

    def test_cache_action_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "bogus"])

    def test_batch_then_cached_repeat(self, tmp_path, capsys):
        spec_file = tmp_path / "specs.json"
        self.write_spec_file(spec_file)
        cache_dir = str(tmp_path / "cache")
        argv = ["batch", "--scenarios", str(spec_file), "--cache", cache_dir]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 simulated, 0 cached, 0 failed" in out
        # identical repeat must be served entirely from the cache
        assert main([*argv, "--require-cached"]) == 0
        out = capsys.readouterr().out
        assert "0 simulated, 2 cached, 0 failed" in out

    def test_require_cached_fails_on_cold_cache(self, tmp_path, capsys):
        spec_file = tmp_path / "specs.json"
        self.write_spec_file(spec_file, n=1)
        code = main(
            ["batch", "--scenarios", str(spec_file),
             "--cache", str(tmp_path / "cache"), "--require-cached"]
        )
        assert code == 1

    def test_no_cache_flag(self, tmp_path, capsys):
        spec_file = tmp_path / "specs.json"
        self.write_spec_file(spec_file, n=1)
        assert main(["batch", "--scenarios", str(spec_file), "--no-cache"]) == 0
        assert "cache=off" in capsys.readouterr().out
        assert not (tmp_path / ".repro-cache").exists()

    def test_cache_stats_and_clear(self, tmp_path, capsys):
        spec_file = tmp_path / "specs.json"
        self.write_spec_file(spec_file, n=1)
        cache_dir = str(tmp_path / "cache")
        main(["batch", "--scenarios", str(spec_file), "--cache", cache_dir])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache", cache_dir]) == 0
        assert "1 entries" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache", cache_dir]) == 0
        assert "cleared 1" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache", cache_dir]) == 0
        assert "0 entries" in capsys.readouterr().out


class TestExecutionOptions:
    """The five execution options are declared once for batch and serve."""

    FLAGS = [
        "--workers", "3", "--shard-mem", "4", "--retries", "2", "--timeout", "9.5",
    ]
    DESTS = {
        "workers": 3, "shard_mem": 4, "retries": 2, "timeout": 9.5, "cache": "DIR",
    }
    #: what FLAGS ask of each run_many call (the budget in bytes)
    SETTINGS = {
        "workers": 3, "retries": 2, "timeout": 9.5, "shard_mem": 4 * 1024 * 1024,
    }

    @classmethod
    def settings(cls, kwargs):
        return {k: kwargs[k] for k in cls.SETTINGS}

    def test_batch_and_serve_parse_the_same_dests(self):
        parser = build_parser()
        for command in ("batch", "serve"):
            args = parser.parse_args([command, *self.FLAGS, "--cache", "DIR"])
            assert {k: getattr(args, k) for k in self.DESTS} == self.DESTS
            defaults = parser.parse_args([command])
            assert (defaults.workers, defaults.retries, defaults.timeout) == (1, 1, None)
            assert (defaults.shard_mem, defaults.cache) == (None, None)

    def test_backend_flag_is_gone(self, capsys):
        """Every run is evaluated by the stage-wise pass: no command takes
        ``--backend``."""
        parser = build_parser()
        for command in ("batch", "serve", "table"):
            argv = [command, "I"] if command == "table" else [command]
            with pytest.raises(SystemExit) as info:
                parser.parse_args([*argv, "--backend", "numpy"])
            assert info.value.code == 2
            assert "unrecognized arguments: --backend" in capsys.readouterr().err

    @pytest.fixture
    def managers(self, monkeypatch):
        import types

        import repro.api as api

        built = []
        monkeypatch.setattr(api, "JobManager", lambda **kwargs: built.append(kwargs))
        monkeypatch.setattr(
            api, "make_server", lambda *a, **k: types.SimpleNamespace(port=1)
        )
        monkeypatch.setattr(api, "serve_forever", lambda server: None)
        return built

    def test_serve_builds_the_same_job_manager(self, managers, tmp_path, capsys):
        assert main(["serve", "--port", "0", "--cache", str(tmp_path)]) == 0
        assert main(["serve", "--port", "0", "--no-cache", *self.FLAGS]) == 0
        plain, flagged = managers
        assert plain["cache"].root == tmp_path and plain["use_cache"]
        for kwargs in managers:
            assert (kwargs["executors"], kwargs["max_queue"]) == (2, 64)
            assert kwargs["db"] is None
        assert self.settings(plain) == {
            "workers": 1, "retries": 1, "timeout": None, "shard_mem": None,
        }
        assert self.settings(flagged) == self.SETTINGS
        assert flagged["cache"] is None and not flagged["use_cache"]

    def test_batch_runs_under_the_options(self, monkeypatch, tmp_path, capsys):
        import repro.exec as exec_mod
        import repro.exec.context as context_mod

        calls = []
        real = context_mod.run_many

        def spy(specs, **kwargs):
            calls.append(kwargs)
            return real(specs, **kwargs)

        monkeypatch.setattr(context_mod, "run_many", spy)
        monkeypatch.setattr(exec_mod, "run_many", spy)
        spec_file = tmp_path / "specs.json"
        TestBatchCommand.write_spec_file(spec_file, n=2)
        argv = ["batch", "--scenarios", str(spec_file), "--no-cache", *self.FLAGS]
        assert main(argv) == 0
        assert "workers=3" in capsys.readouterr().out
        (kwargs,) = calls
        assert self.settings(kwargs) == self.SETTINGS
        assert kwargs["cache"] is None and kwargs["progress"] is not None


class TestMetricsCommand:
    def test_metrics_run(self, capsys):
        assert main(["metrics", "--stages", "3", "--p", "0.4", "--cycles", "1500"]) == 0
        out = capsys.readouterr().out
        assert "instrumented run" in out
        assert "phase timings" in out
        assert "utilization" in out

    def test_metrics_finite_buffer(self, capsys):
        code = main(
            ["metrics", "--stages", "3", "--p", "0.6", "--cycles", "1500",
             "--buffer", "2"]
        )
        assert code == 0
        assert "dropped" in capsys.readouterr().out


class TestMetricsOut:
    def test_table_smoke_emits_manifest_and_jsonl(self, tmp_path, capsys):
        """The acceptance smoke run: table I with --metrics-out."""
        from repro.obs.manifest import validate_manifest, validate_metrics_record

        out_dir = tmp_path / "artifacts"
        assert main(
            ["table", "I", "--cycles", "2000", "--metrics-out", str(out_dir)]
        ) == 0
        assert "TABLE I" in capsys.readouterr().out
        manifests = sorted(out_dir.glob("*.manifest.json"))
        metrics = sorted(out_dir.glob("*.metrics.jsonl"))
        assert manifests and metrics
        for path in manifests:
            manifest = json.loads(path.read_text())
            validate_manifest(manifest)
            assert manifest["n_cycles"] == 2000
            assert manifest["config"]["k"] == 2
            assert manifest["throughput"] >= 0
        lines = metrics[0].read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "metrics_header"
        n_stages = None
        for line in lines[1:]:
            record = json.loads(line)
            if n_stages is None:
                n_stages = len(record["queue_depth"])
            validate_metrics_record(record, n_stages=n_stages)

    def test_session_not_left_installed(self, tmp_path):
        from repro.obs.session import current_session

        main(["table", "VI", "--cycles", "2500", "--metrics-out", str(tmp_path)])
        assert current_session() is None
