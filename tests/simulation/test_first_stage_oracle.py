"""The first-stage waiting-time distribution against Theorem 1, per path.

The unit of observation is an independent replica, not a message:
successive waits of one run are correlated, so a test over one run's
pooled waits would overstate its evidence.  Each replica gives one
vector of first-stage frequencies ``f_j`` (the share of its measured
messages that waited exactly ``j`` cycles at stage 1) and its mean
first-stage wait; across the replicas of a case, the Student-t interval
of each ``f_j`` must cover the exact ``P(w = j)`` of
:meth:`FirstStageQueue.waiting_pmf`, and that of the mean the exact
``E[w]``.

Every case runs through the three ways a spec can be simulated -- a
serial :class:`NetworkSimulator` per replica, one :func:`run_stacked`
engine and one :func:`run_streamed` batch -- and the intervals are
Bonferroni-corrected over every (case, path, statistic) tested, so the
whole module raises a false alarm with probability at most
:data:`FAMILY_ALPHA`.  Only bins with exact mass of at least
:data:`MIN_BIN_MASS` are tested; rarer ones carry no power at this
sample size.

The heavy-traffic case (``rho = 0.96``) remembers its arrivals for
longer than a 256-cycle draw block, so its mean wait also sees how the
arrivals of successive blocks depend on each other (arrivals that
repeat from one block to the next make the queue burstier), which no
marginal frequency at moderate load can.
"""

from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from scipy import stats as sps

from repro.arrivals.bernoulli import UniformTraffic
from repro.arrivals.bulk import BulkUniformTraffic
from repro.arrivals.nonuniform import FavoriteOutputTraffic
from repro.core.first_stage import FirstStageQueue
from repro.service.deterministic import DeterministicService
from repro.simulation.batched import run_stacked
from repro.simulation.network import NetworkConfig, NetworkSimulator
from repro.simulation.streamed import run_streamed

#: family-wise false-alarm probability of the whole module
FAMILY_ALPHA = 0.01
#: wait values tested: ``j < MAX_BINS`` with ``P(w = j) >= MIN_BIN_MASS``
MAX_BINS = 6
MIN_BIN_MASS = 0.01


class Case(NamedTuple):
    config: NetworkConfig
    arrivals: object  # at one first-stage queue
    service: DeterministicService
    first_seed: int
    n_replicas: int = 20
    n_cycles: int = 3_000
    warmup: int = 300

    def queue(self) -> FirstStageQueue:
        return FirstStageQueue(self.arrivals, self.service)


#: the single-stage width-16 networks give 16 first-stage queues per
#: replica; the favourite bias needs destination routing (omega)
CASES = {
    "uniform-p0.3": Case(
        NetworkConfig(k=2, n_stages=1, p=0.3, topology="random", width=16),
        UniformTraffic(2, 0.3), DeterministicService(1), 1_000,
    ),
    "uniform-p0.7": Case(
        NetworkConfig(k=2, n_stages=1, p=0.7, topology="random", width=16),
        UniformTraffic(2, 0.7), DeterministicService(1), 2_000,
    ),
    "bulk2": Case(
        NetworkConfig(k=2, n_stages=1, p=0.3, bulk_size=2, topology="random", width=16),
        BulkUniformTraffic(2, 0.3, 2), DeterministicService(1), 3_000,
    ),
    "favourite-q0.3": Case(
        NetworkConfig(k=2, n_stages=3, p=0.7, q=0.3, topology="omega"),
        FavoriteOutputTraffic(2, 0.7, 0.3), DeterministicService(1), 4_000,
    ),
    "m4": Case(
        NetworkConfig(k=2, n_stages=1, p=0.15, message_size=4, topology="random", width=16),
        UniformTraffic(2, 0.15), DeterministicService(4), 5_000,
    ),
    "m4-heavy": Case(
        NetworkConfig(k=2, n_stages=1, p=0.24, message_size=4, topology="random", width=16),
        UniformTraffic(2, 0.24), DeterministicService(4), 6_000,
        n_replicas=40, n_cycles=20_000, warmup=4_000,
    ),
}


def run_serial(configs, n_cycles, warmup):
    return [NetworkSimulator(c).run(n_cycles, warmup=warmup) for c in configs]


def run_stacked_path(configs, n_cycles, warmup):
    return run_stacked(configs, n_cycles, warmup=warmup)


def run_streamed_path(configs, n_cycles, warmup):
    return run_streamed(configs, n_cycles, warmup=warmup).results


PATHS = {"serial": run_serial, "stacked": run_stacked_path, "streamed": run_streamed_path}


def bins_under_test(pmf: np.ndarray) -> np.ndarray:
    return np.flatnonzero(pmf >= MIN_BIN_MASS)


def exact_pmf(case: str) -> np.ndarray:
    return np.asarray(CASES[case].queue().waiting_pmf(MAX_BINS), dtype=float)


#: every (case, path, statistic) interval of the module shares
#: FAMILY_ALPHA: the tested bins plus the mean
N_INTERVALS = len(PATHS) * sum(bins_under_test(exact_pmf(case)).size + 1 for case in CASES)


def first_stage_frequencies(result) -> np.ndarray:
    """The share of a replica's measured first-stage waits equal to
    ``j``, for ``j < MAX_BINS``."""
    tracked = result.tracked
    waits = tracked.waits[: tracked.allocated, 0]
    waits = waits[waits >= 0].astype(np.int64)
    assert waits.size > 1_000
    return np.bincount(waits, minlength=MAX_BINS)[:MAX_BINS] / waits.size


def covers(samples: np.ndarray, target: float, n_replicas: int) -> tuple:
    """Whether the Bonferroni-corrected t-interval of the per-replica
    ``samples`` covers ``target``; and the interval, for the message."""
    t = sps.t.ppf(1 - FAMILY_ALPHA / (2 * N_INTERVALS), df=n_replicas - 1)
    mean = float(samples.mean())
    half = float(t * samples.std(ddof=1) / np.sqrt(n_replicas))
    return abs(mean - target) <= half, f"{mean:.4f} +/- {half:.4f}"


@pytest.mark.parametrize("path", list(PATHS))
@pytest.mark.parametrize("case", list(CASES))
def test_replica_intervals_cover_theorem_1(case, path):
    c = CASES[case]
    configs = [replace(c.config, seed=c.first_seed + i) for i in range(c.n_replicas)]
    results = PATHS[path](configs, c.n_cycles, c.warmup)
    freqs = np.array([first_stage_frequencies(r) for r in results])
    pmf = exact_pmf(case)
    for j in bins_under_test(pmf):
        ok, interval = covers(freqs[:, j], pmf[j], c.n_replicas)
        assert ok, f"{case} via {path}: P(w={j}) = {pmf[j]:.4f} outside {interval}"
    mean_wait = float(c.queue().waiting_mean())
    ok, interval = covers(
        np.array([r.stage_means[0] for r in results]), mean_wait, c.n_replicas
    )
    assert ok, f"{case} via {path}: E[w] = {mean_wait:.4f} outside {interval}"
