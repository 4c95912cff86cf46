"""Pinned outputs of stacked and streamed runs.

The expected SHA-256 fingerprints cover every deterministic
:class:`NetworkResult` field (the tracked rows included), the streamed
engine's :class:`~repro.simulation.stats.StreamingTotals`, and the spec
digests of a vectorized and a streamed ``run_many`` batch.  Each case is
evaluated by the stage-wise pass (``backend="numpy"``) and by the
interpreted per-cycle kernel; both must reproduce the same fingerprint,
so a change to how stacked or streamed runs are driven cannot move a
sample path unnoticed.

Regenerate a fingerprint only for a change that is *meant* to alter
sample paths (a new seeding contract, say), and say so in CHANGES.md.
"""

from dataclasses import asdict, replace

import pytest

from repro.exec.runner import run_many
from repro.exec.spec import ExperimentSpec
from repro.simulation.backends.jit import cycle_loop_kernel, numba_available
from repro.simulation.batched import run_batched, run_stacked
from repro.simulation.network import NetworkConfig
from repro.simulation.streamed import run_streamed

from tests.simulation.test_serial_pins import fingerprint, result_fields

#: the evaluators every case is pinned under: the pass and the
#: interpreted kernel always, the compiled kernel when numba is importable
BACKENDS = [
    pytest.param("numpy", id="numpy"),
    pytest.param(cycle_loop_kernel, id="interpreted-kernel"),
]
if numba_available():
    BACKENDS.append(pytest.param("numba", id="njit"))


def pinned_fields(result) -> dict:
    """Every deterministic result field less the backend label, which
    names the evaluator and is asserted separately."""
    fields = result_fields(result)
    del fields["backend"]
    if result.totals_summary is not None:
        fields["totals_summary"] = asdict(result.totals_summary)
    return fields


def totals_fields(totals) -> dict:
    return {
        "counts": totals.counts,
        "mins": totals.mins,
        "maxs": totals.maxs,
        "sums_shifted": totals.sums_shifted,
        "sumsq_shifted": totals.sumsq_shifted,
        "sketch": None if totals.sketch is None else {
            "probs": totals.sketch.probs,
            "knots": totals.sketch.knots,
            "count": totals.sketch.count,
        },
        "tail": totals.tail,
        "tail_k": totals.tail_k,
    }


def check_results(results, backend, expected):
    label = "numpy" if backend == "numpy" else "numba"
    assert all(r.backend == label for r in results)
    assert fingerprint([pinned_fields(r) for r in results]) == expected


HETEROGENEOUS_BASE = NetworkConfig(k=2, n_stages=4, p=0.3, topology="omega")
HETEROGENEOUS_ROWS = [
    replace(HETEROGENEOUS_BASE, p=0.3, seed=21),
    replace(HETEROGENEOUS_BASE, p=0.25, bulk_size=2, seed=22),
    replace(HETEROGENEOUS_BASE, p=0.5, q=0.3, seed=23),
    replace(HETEROGENEOUS_BASE, p=0.15, message_size=4, seed=24),
]


@pytest.mark.parametrize("backend", BACKENDS)
class TestStackedPins:
    def test_run_batched_single_replica(self, backend):
        config = NetworkConfig(k=2, n_stages=3, p=0.5, seed=42)
        results = run_batched(config, [42], 1_500, warmup=300, backend=backend)
        check_results(results, backend, "af04351c380c1860")

    def test_run_batched_four_replicas(self, backend):
        config = NetworkConfig(k=2, n_stages=3, p=0.6, topology="random", width=16)
        results = run_batched(config, [11, 12, 13, 14], 1_200, warmup=200, backend=backend)
        check_results(results, backend, "cbd6f8702003402a")

    def test_run_stacked_heterogeneous_rows(self, backend):
        results = run_stacked(HETEROGENEOUS_ROWS, 1_000, warmup=150, backend=backend)
        check_results(results, backend, "292f9eb14a12fcf2")

    def test_run_stacked_store_and_forward(self, backend):
        config = NetworkConfig(
            k=2, n_stages=3, p=0.2, message_size=3, transfer="store_forward"
        )
        configs = [replace(config, seed=s) for s in (5, 6, 7)]
        results = run_stacked(configs, 1_000, warmup=100, backend=backend)
        check_results(results, backend, "fbcf914c16063ed6")


@pytest.mark.parametrize("backend", BACKENDS)
class TestStreamedPins:
    def test_run_streamed_tracked(self, backend):
        configs = [
            NetworkConfig(k=2, n_stages=3, p=p, seed=60 + i)
            for i, p in enumerate([0.2, 0.5, 0.7, 0.4])
        ]
        batch = run_streamed(configs, 600, warmup=80, backend=backend)
        assert batch.totals is None
        check_results(batch.results, backend, "47c46b2e514f9ff9")

    def test_run_streamed_summary_mode(self, backend):
        configs = [
            NetworkConfig(k=2, n_stages=3, p=p, seed=70 + i, track_limit=0)
            for i, p in enumerate([0.3, 0.6, 0.45])
        ]
        batch = run_streamed(configs, 600, warmup=80, backend=backend)
        check_results(batch.results, backend, "d5578ca3a4768783")
        assert fingerprint(totals_fields(batch.totals)) == "bec0797fd4841744"


def batch_specs():
    base = NetworkConfig(k=2, n_stages=3, p=0.5, topology="random", width=16)
    return [
        ExperimentSpec(config=replace(base, p=p, seed=s), n_cycles=700, warmup=100)
        for s, p in [(1, 0.3), (2, 0.5), (3, 0.6), (4, 0.5)]
    ]


def test_vectorized_run_many_batch():
    batch = run_many(batch_specs(), vectorize=True, backend="numpy")
    assert batch.n_failed == 0
    digests = [o.spec.digest for o in batch.outcomes]
    assert fingerprint(digests) == "293b222d3dacb54b"
    assert fingerprint([pinned_fields(r) for r in batch.results()]) == "e19c344c4b62adc6"


def test_streamed_run_many_batch():
    batch = run_many(batch_specs(), stream=True, backend="numpy")
    assert batch.n_failed == 0
    digests = [o.spec.digest for o in batch.outcomes]
    assert fingerprint(digests) == "c3e798fa93ff3aa0"
    assert fingerprint([pinned_fields(r) for r in batch.results()]) == "2b8b93a57d7b1742"
