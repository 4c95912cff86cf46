"""Checks of the benchmark itself, at tiny sizes.

Run explicitly with ``python -m pytest bench -q`` (the repository's own
suite collects only ``tests/``).  Every workload runs once untraced, once
traced and once with perturbed outputs, each for a single operation
(``--seconds 0``), two at a time.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5


def _bench(out: Path, workload: str, trace: int, perturb: str = "1") -> dict:
    env = dict(os.environ, REPRO_BENCH_PERTURB=perturb)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--tiny",
         "--out", str(out)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "last": json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None,
            "doc": json.loads(out.read_text()) if out.is_file() else None}


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    tmp = tmp_path_factory.mktemp("bench")
    jobs = [(w, t, p) for w in WORKLOADS for t, p in ((0, "1"), (1, "1"), (1, "1.5"))]
    jobs += [("tables", 1, "1"), ("stream", 1, "1")]  # repeats: same seed, same work
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(_bench, tmp / f"{i}.json", *job) for i, job in enumerate(jobs)]
        results = [f.result() for f in futures]
    out: dict = {}
    for job, result in zip(jobs, results):
        out.setdefault(job, []).append(result)
    return out


def _metrics(result: dict) -> dict:
    assert result["last"] is not None, result["stderr"][-2000:]
    return result["last"]["metrics"]


def _printed(result: dict, name: str) -> str:
    """The value of a metric as printed on a human-readable line."""
    for line in result["stdout"].splitlines():
        parts = line.split()
        if parts and parts[0] == name:
            return parts[1]
    raise AssertionError(f"{name} not printed")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(runs, workload):
    (result,) = runs[(workload, 0, "1")]
    assert result["code"] == 0, result["stderr"][-2000:]
    last = result["last"]
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    metrics = _metrics(result)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0
        _printed(result, m["name"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(runs, workload):
    result = runs[(workload, 1, "1")][0]
    assert result["code"] == 0, result["stderr"][-2000:]
    metrics = _metrics(result)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    assert metrics["loop.msg_hops"]["value"] > 0
    assert metrics["trace.spans"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_are_consistent(runs, workload):
    result = runs[(workload, 1, "1")][0]
    metrics = _metrics(result)
    for name, m in metrics.items():
        if name.endswith("self_pct"):
            assert m["value"] >= 0, name
    assert result["doc"]["extras"]["trace.self_violations"]["value"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_runs_compute_identical_outputs(runs, workload):
    """Tracing only times the program: the outputs are bit-identical."""
    plain = runs[(workload, 0, "1")][0]["doc"]["ops"]
    traced = runs[(workload, 1, "1")][0]["doc"]["ops"]
    assert plain[0]["fingerprint"] is not None
    assert [op["fingerprint"] for op in plain] == [op["fingerprint"] for op in traced]


@pytest.mark.parametrize("workload", ["tables", "stream"])
def test_same_seed_gives_identical_work_counts(runs, workload):
    first, second = (_metrics(r) for r in runs[(workload, 1, "1")])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert [first[n]["value"] for n in counts] == [second[n]["value"] for n in counts]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_outputs_trip_the_oracle(runs, workload):
    (result,) = runs[(workload, 1, "1.5")]
    assert result["code"] != 0
    assert result["last"]["correct"] is False
    assert result["last"]["failed"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "baseline"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
