"""Compute-backend benchmark: the >= 3x JIT-kernel speedup claim.

``docs/backends.md`` claims that the numba backend -- the whole
multi-cycle loop compiled into one nopython function over pre-drawn
arrivals -- beats the per-cycle NumPy reference backend by at least 3x
on the paper's small-network scenario (``k = 2``, 6 stages, width 8)
stacked at ``R = 64``.  The measured baseline is emitted as
``BENCH_backend.json`` so CI keeps a comparable artifact trail
(ingested into the experiment DB under series ``backend``).

Skips (rather than fails) when numba is not importable, and is
CPU-gated like the other runner benchmarks: on a starved box the
baseline is noise-dominated and the ratio meaningless.
"""

import json
import os
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

pytest.importorskip("numba")

from repro.simulation.backends import resolve_kernel  # noqa: E402
from repro.simulation.batched import run_batched  # noqa: E402
from repro.simulation.network import NetworkConfig  # noqa: E402


def assert_results_identical(a, b):
    """Bit-identity, same contract as tests/simulation/test_batched.py."""
    assert np.array_equal(a.stage_counts, b.stage_counts)
    assert np.array_equal(a.stage_means, b.stage_means, equal_nan=True)
    assert np.array_equal(a.stage_variances, b.stage_variances, equal_nan=True)
    assert a.injected == b.injected
    assert a.completed == b.completed
    assert a.max_occupancy == b.max_occupancy
    assert np.array_equal(a.tracked.complete_rows(), b.tracked.complete_rows())


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def bench_config() -> NetworkConfig:
    """The ISSUE scenario: k=2, 6 stages, width 8, moderate load.

    ``track_limit`` is shrunk from the 200k default: the batched
    tracker allocates ``R * track_limit`` rows up front, and the
    speedup claim is about kernel dispatch, not tracking memory.
    """
    return NetworkConfig(
        k=2, n_stages=6, p=0.5, topology="random", width=8, track_limit=20_000
    )


@pytest.mark.skipif(
    _usable_cpus() < 4,
    reason=f"speedup benchmark needs >= 4 usable CPUs, have {_usable_cpus()}",
)
def test_numba_backend_speedup(benchmark, cycles):
    """run_batched(backend="numba") at R=64 must beat numpy by >= 3x."""
    config = bench_config()
    n_replicas = 64
    n_cycles = max(cycles, 2_000)
    seeds = list(range(1, n_replicas + 1))

    # sanity: an importable numba must also resolve as usable here
    assert resolve_kernel("auto")[1] == "numba"

    # warm both paths: the numba run pays JIT compilation exactly once
    run_batched(config, [1, 2], 1_000, backend="numpy")
    run_batched(config, [1, 2], 1_000, backend="numba")

    t0 = perf_counter()
    via_numpy = run_batched(config, seeds, n_cycles, backend="numpy")
    t_numpy = perf_counter() - t0

    t0 = perf_counter()
    via_numba = run_batched(config, seeds, n_cycles, backend="numba")
    t_numba = perf_counter() - t0

    # the determinism contract holds at benchmark scale too
    assert len(via_numpy) == len(via_numba) == n_replicas
    for a, b in zip(via_numpy, via_numba, strict=True):
        assert_results_identical(a, b)

    speedup = t_numpy / t_numba
    artifact = {
        "scenario": "k=2 n_stages=6 width=8 p=0.5",
        "n_replicas": n_replicas,
        "n_cycles": n_cycles,
        "numpy_seconds": round(t_numpy, 4),
        "numba_seconds": round(t_numba, 4),
        "speedup": round(speedup, 2),
        "usable_cpus": _usable_cpus(),
    }
    Path("BENCH_backend.json").write_text(json.dumps(artifact, indent=2))

    def report():
        return t_numba

    benchmark.pedantic(report, rounds=1, iterations=1)
    assert speedup >= 3.0, (
        f"expected >= 3x numba-backend speedup at R={n_replicas}: numpy "
        f"{t_numpy:.2f}s, numba {t_numba:.2f}s ({speedup:.2f}x)"
    )
