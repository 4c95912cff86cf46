"""Replica-batching benchmarks: the >= 5x stacked-speedup claim.

``docs/simulator.md`` claims that stacking ``R = 32`` replicas of the
paper's small-network scenario (``k = 2``, 6 stages, width 8) into one
stacked :func:`~repro.simulation.batched.run_batched` run is at least
5x faster than the serial ``replicate()`` loop -- the per-cycle NumPy
kernel-call overhead is paid once for the batch instead of once per
replica.  The measured baseline is emitted as ``BENCH_replicas.json``
so CI keeps a comparable artifact trail.

CPU-gated like the runner benchmarks: on a starved box the serial
baseline is noise-dominated and the ratio meaningless.
"""

import json
import os
from pathlib import Path
from time import perf_counter

import pytest

from repro.simulation.network import NetworkConfig
from repro.simulation.replication import replicate


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def bench_config() -> NetworkConfig:
    """The ISSUE scenario: k=2, 6 stages, width 8, moderate load.

    ``track_limit`` is shrunk from the 200k default: the batched
    tracker allocates ``R * track_limit`` rows up front, and the
    speedup claim is about kernel-call overhead, not tracking memory.
    """
    return NetworkConfig(
        k=2, n_stages=6, p=0.5, topology="random", width=8, track_limit=20_000
    )


@pytest.mark.skipif(
    _usable_cpus() < 4,
    reason=f"speedup benchmark needs >= 4 usable CPUs, have {_usable_cpus()}",
)
def test_batched_replicate_speedup(benchmark, cycles):
    """replicate(..., vectorize=True) at R=32 must beat serial by >= 5x."""
    config = bench_config()
    n_replicas = 32
    n_cycles = max(cycles, 2_000)

    # warm both paths once so neither pays first-call import costs
    replicate(config, 2, 1_000, vectorize=True)
    replicate(config, 2, 1_000, vectorize=False)

    t0 = perf_counter()
    serial = replicate(config, n_replicas, n_cycles, vectorize=False)
    t_serial = perf_counter() - t0

    t0 = perf_counter()
    batched = replicate(config, n_replicas, n_cycles, vectorize=True)
    t_batched = perf_counter() - t0

    assert len(serial) == len(batched) == n_replicas
    for r in batched:  # same schema, per-replica statistics present
        assert r.stage_means.shape == (config.n_stages,)
        assert r.stage_counts.sum() > 0

    speedup = t_serial / t_batched
    artifact = {
        "scenario": "k=2 n_stages=6 width=8 p=0.5",
        "n_replicas": n_replicas,
        "n_cycles": n_cycles,
        "serial_seconds": round(t_serial, 4),
        "batched_seconds": round(t_batched, 4),
        "speedup": round(speedup, 2),
        "usable_cpus": _usable_cpus(),
    }
    Path("BENCH_replicas.json").write_text(json.dumps(artifact, indent=2))

    def report():
        return t_batched

    benchmark.pedantic(report, rounds=1, iterations=1)
    assert speedup >= 5.0, (
        f"expected >= 5x batched speedup at R={n_replicas}: serial "
        f"{t_serial:.2f}s, batched {t_batched:.2f}s ({speedup:.2f}x)"
    )
