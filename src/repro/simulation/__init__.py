"""Clocked discrete-event simulation of buffered banyan networks.

This subpackage is the reproduction's stand-in for the authors' (now
lost) in-house simulator: a cycle-accurate model of a multistage
interconnection network built from ``k x k`` output-queued switches,
vectorised over every port in the network with NumPy so that the
"extensive simulations" of the paper run in seconds on a laptop.

Modules
-------
:mod:`repro.simulation.rng`
    Seeding discipline (independent streams per subsystem).
:mod:`repro.simulation.topology`
    Omega / butterfly / baseline banyan wirings, digit routing, path
    tracing, and networkx export.
:mod:`repro.simulation.switch`
    Vectorised multi-queue FIFO ring buffers (the output queues).
:mod:`repro.simulation.traffic`
    First-stage message generation: Bernoulli loads, bulks, favourite
    bias, multi-size messages -- one stream per replica, drawn in
    blocks of 256 cycles.
:mod:`repro.simulation.engine`
    The clocked engine, ``R >= 1`` replicas evaluated window by window
    by :mod:`repro.simulation.stagewise`.
:mod:`repro.simulation.batched`
    Stacked runs: ``R`` independent scenarios in one engine, amortising
    per-call overhead; each replica's result equals its serial run.
:mod:`repro.simulation.network`
    The user-facing facade: :class:`~repro.simulation.network.NetworkSimulator`
    built from a :class:`~repro.simulation.network.NetworkConfig`,
    returning a :class:`~repro.simulation.network.NetworkResult`.
:mod:`repro.simulation.queue_sim`
    A separate O(n) fully-vectorised simulator of a *single* first-stage
    queue via the Lindley recursion -- the sharpest possible check of
    Theorem 1.
:mod:`repro.simulation.stats`
    Output analysis: accumulators, correlations, batch-means confidence
    intervals, histograms.
"""

from __future__ import annotations

from repro.simulation.batched import run_batched, run_stacked
from repro.simulation.network import NetworkConfig, NetworkResult, NetworkSimulator
from repro.simulation.queue_sim import simulate_first_stage_queue
from repro.simulation.replication import replicate, replicated_statistic
from repro.simulation.sampling import AliasSampler
from repro.simulation.topology import (
    BaselineTopology,
    ButterflyTopology,
    OmegaTopology,
    RandomRoutingTopology,
)
from repro.simulation.trace import MessageTracer
from repro.simulation.warmup import mser5_truncation

__all__ = [
    "NetworkConfig",
    "NetworkResult",
    "NetworkSimulator",
    "run_batched",
    "run_stacked",
    "simulate_first_stage_queue",
    "OmegaTopology",
    "ButterflyTopology",
    "BaselineTopology",
    "RandomRoutingTopology",
    "AliasSampler",
    "MessageTracer",
    "replicate",
    "replicated_statistic",
    "mser5_truncation",
]
