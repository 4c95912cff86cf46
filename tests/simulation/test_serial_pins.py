"""Pinned outputs of observed, finite-buffer and resumed serial runs.

The expected SHA-256 fingerprints were computed with the per-cycle
engine loop (``step``/``_inject``/``_serve``/``_forward`` over ring
buffers) that every observed, timed, finite-buffer, sanitized or resumed
serial run took before the stage-wise pass learnt those features.  The
pass must reproduce them bit for bit: metrics records and summaries,
tracer journeys, MSER-5 truncation points, every :class:`NetworkResult`
field, and the ``repro metrics`` report less its wall-clock figures.

Regenerate a fingerprint only for a change that is *meant* to alter
sample paths (a new seeding contract, say), and say so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import re

import numpy as np
import pytest

from repro.cli import main
from repro.obs.metrics import MetricsCollector
from repro.simulation.network import NetworkConfig, NetworkSimulator
from repro.simulation.trace import MessageTracer


def fingerprint(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=_jsonable)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return {"dtype": str(value.dtype), "shape": value.shape,
                "sha": hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()}
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot fingerprint {type(value).__name__}")


def result_fields(result) -> dict:
    """Every deterministic :class:`NetworkResult` field."""
    return {
        "n_cycles": result.n_cycles,
        "warmup": result.warmup,
        "stage_means": result.stage_means,
        "stage_variances": result.stage_variances,
        "stage_counts": result.stage_counts,
        "tracked_waits": result.tracked.waits,
        "tracked_allocated": result.tracked.allocated,
        "injected": result.injected,
        "completed": result.completed,
        "dropped": result.dropped,
        "max_occupancy": result.max_occupancy,
        # the evaluator label every serial run carried when these
        # fingerprints were taken; the pass is now the only evaluator
        "backend": "numpy",
        "timings": result.timings,
        "totals_summary": result.totals_summary,
    }


#: (config, n_cycles, warmup, stride, capacity) -> records/summary fingerprint
METRICS_CASES = {
    "cut-through-stride1": (
        dict(k=2, n_stages=3, p=0.5, seed=3), 600, 0, 1, 4096,
        "9ed1ba10ae369cf1",
    ),
    "store-forward-m4-stride16-warmup": (
        dict(k=2, n_stages=3, p=0.2, message_size=4, transfer="store_forward", seed=4),
        3000, 400, 16, 4096,
        "20e2d795cc088512",
    ),
    "m4-cut-through-wraparound": (
        dict(k=2, n_stages=4, p=0.2, message_size=4, seed=5), 2000, None, 16, 8,
        "dd5042a4a4b876ed",
    ),
    "bulk-stride3": (
        dict(k=2, n_stages=3, p=0.3, bulk_size=2, seed=6), 900, 50, 3, 4096,
        "bb8d2c039ca66c1e",
    ),
    "capacity2-drops-stride1": (
        dict(k=2, n_stages=3, p=0.8, buffer_capacity=2, seed=7), 700, 0, 1, 4096,
        "3124f467de1c3bd9",
    ),
    "capacity4-drops-m2-stride16": (
        dict(k=2, n_stages=4, p=0.45, message_size=2, buffer_capacity=4, seed=8),
        2500, 200, 16, 4096,
        "987e1482db57002f",
    ),
    "random-width-wraparound-stride1": (
        dict(k=2, n_stages=4, p=0.6, topology="random", width=16, seed=9),
        1200, 300, 1, 50,
        "26ac69f7794f84a5",
    ),
}


@pytest.mark.parametrize("case", sorted(METRICS_CASES))
def test_metrics_records_and_summary(case):
    config, n_cycles, warmup, stride, capacity, expected = METRICS_CASES[case]
    sim = NetworkSimulator(NetworkConfig(**config))
    collector = MetricsCollector(stride=stride, capacity=capacity)
    sim.attach_metrics(collector)
    sim.run(n_cycles, warmup=warmup)
    got = fingerprint({"records": list(collector.records()), "summary": collector.summary()})
    assert got == expected


#: (config, n_cycles, warmup, limit) -> journeys fingerprint
TRACER_CASES = {
    "short-circuits": (dict(k=2, n_stages=3, p=0.4, seed=11), 400, 0, 5,
                       "9fb09744313b640e"),
    "store-forward-warmup": (
        dict(k=2, n_stages=3, p=0.25, message_size=3, transfer="store_forward", seed=12),
        500, 60, 150,
        "66dcb02ba2fcfbba",
    ),
    "drops-never-finish": (
        dict(k=2, n_stages=3, p=0.85, buffer_capacity=2, seed=13), 300, 0, 400,
        "155a98abc618ac1a",
    ),
}


@pytest.mark.parametrize("case", sorted(TRACER_CASES))
def test_tracer_journeys(case):
    config, n_cycles, warmup, limit, expected = TRACER_CASES[case]
    sim = NetworkSimulator(NetworkConfig(**config))
    tracer = MessageTracer(limit=limit)
    sim.engine.add_observer(tracer)
    sim.run(n_cycles, warmup=warmup)
    journeys = [tracer.journey(tid).describe() for tid in range(tracer.traced)]
    got = fingerprint({"journeys": journeys, "traced": tracer.traced,
                       "finished": tracer.finished})
    assert got == expected


#: (config, n_cycles) -> MSER-5 truncation point
AUTO_WARMUP_CASES = {
    "light": (dict(k=2, n_stages=4, p=0.5, topology="random", width=64, seed=5), 6000, 100),
    "heavy-m2": (dict(k=2, n_stages=5, p=0.4, message_size=2, topology="random",
                      width=32, seed=21), 8000, 100),
    "banyan-bulk": (dict(k=2, n_stages=3, p=0.3, bulk_size=2, seed=22), 4000, 100),
    # a transient long enough to clear the 100-cycle floor
    "heavy-rho95": (dict(k=2, n_stages=3, p=0.95, topology="random", width=32, seed=23),
                    8000, 525),
}

#: MSER-5 truncation of each case's pilot series, before the floor: the
#: first three cases land on the floor, so only these tell a working
#: detector from one that returns 0
DETECTED = {"light": 10, "heavy-m2": 70, "banyan-bulk": 5, "heavy-rho95": 525}


@pytest.mark.parametrize("case", sorted(AUTO_WARMUP_CASES))
def test_auto_warmup_truncation(case):
    config, n_cycles, expected = AUTO_WARMUP_CASES[case]
    result = NetworkSimulator(NetworkConfig(**config)).run(n_cycles, warmup="auto")
    assert result.warmup == expected


@pytest.mark.parametrize("case", sorted(AUTO_WARMUP_CASES))
def test_auto_warmup_detection_before_floor(case, monkeypatch):
    import repro.simulation.warmup as warmup_mod

    detected = []
    real = warmup_mod.mser5_truncation

    def spy(series, *args, **kwargs):
        detected.append(real(series, *args, **kwargs))
        return detected[-1]

    monkeypatch.setattr(warmup_mod, "mser5_truncation", spy)
    config, n_cycles, _ = AUTO_WARMUP_CASES[case]
    NetworkSimulator(NetworkConfig(**config)).run(n_cycles, warmup="auto")
    assert detected == [DETECTED[case]]


#: finite-buffer configs -> NetworkResult fingerprint
FINITE_CASES = {
    "capacity4-p05": (dict(k=2, n_stages=4, p=0.5, buffer_capacity=4, topology="random",
                           width=32, seed=1), 2000, None, "ef67a4191f746111"),
    "capacity2-p08": (dict(k=2, n_stages=3, p=0.8, buffer_capacity=2, seed=2),
                      1500, 100, "0ba443ea0ca1a538"),
    "capacity1-m3-store-forward": (
        dict(k=2, n_stages=3, p=0.3, message_size=3, transfer="store_forward",
             buffer_capacity=1, seed=3), 1200, 0, "c7f7d8000ad5eb7b"),
    "capacity3-bulk": (dict(k=3, n_stages=2, p=0.35, bulk_size=3, buffer_capacity=3,
                            seed=4), 1500, 150, "489888565b502f51"),
}


@pytest.mark.parametrize("case", sorted(FINITE_CASES))
def test_finite_buffer_results(case):
    config, n_cycles, warmup, expected = FINITE_CASES[case]
    result = NetworkSimulator(NetworkConfig(**config)).run(n_cycles, warmup=warmup)
    assert result.dropped > 0
    assert fingerprint(result_fields(result)) == expected


def test_run_split_across_two_calls():
    sim = NetworkSimulator(NetworkConfig(k=2, n_stages=3, p=0.7, message_size=2, seed=31))
    first = fingerprint(result_fields(sim.run(700, warmup=50)))
    second = fingerprint(result_fields(sim.run(900, warmup=20)))
    assert (first, second) == ("1cd7c603f608b57e", "6a50f29b76a3120c")


def _metrics_report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    lines = out.getvalue().splitlines()
    # drop the phase-timing block and the wall-clock figures
    lines = lines[: lines.index("phase timings:")]
    return [re.sub(r"; [0-9.]+s wall \([0-9,]+ cycles/s\)", "", line) for line in lines]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["metrics", "--stages", "4", "--p", "0.6", "--cycles", "3000"], "a971fe2f49590d50"),
        (["metrics", "--stages", "3", "--p", "0.7", "--m", "2", "--width", "16",
          "--buffer", "4", "--cycles", "2000", "--seed", "5",
          "--metrics-stride", "7"], "4238ee4cb8e9e7b7"),
    ],
    ids=["plain", "finite-buffer"],
)
def test_repro_metrics_report(argv, expected):
    assert fingerprint(_metrics_report(argv)) == expected
