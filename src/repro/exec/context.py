"""Ambient execution policy for the analysis layer.

Table, figure, and sweep generators build their simulations internally,
so "run this table with 4 workers against the shared cache" cannot be
threaded as arguments through every generator signature.  Mirroring
:mod:`repro.obs.session`, an :class:`ExecutionContext` is installed
process-wide (the CLI's ``--workers`` / ``--cache`` flags wrap each
command in one); generators route their simulations through
:func:`run_batch` / :func:`simulate`, which consult the ambient
context.  The default context (one worker, no cache) makes both
helpers behave exactly like inline ``NetworkSimulator(config).run(...)``
loops -- library callers that never install a context see no change.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import ExecutionError
from repro.simulation.sanitize import SANITIZE_ENV
from repro.exec.cache import ResultCache
from repro.exec.runner import BatchResult, run_many
from repro.exec.spec import ExperimentSpec
from repro.simulation.network import NetworkConfig, NetworkResult

__all__ = [
    "ExecutionContext",
    "use_execution",
    "current_execution",
    "run_batch",
    "simulate",
]


@dataclass(frozen=True)
class ExecutionContext:
    """How batches launched through the ambient helpers should run."""

    workers: int = 1
    cache: Optional[ResultCache] = None
    retries: int = 1
    timeout: Optional[float] = None
    #: run the seeds of each scenario in stacked engines, in memory-
    #: bounded shards (:mod:`repro.simulation.batched`); composes with
    #: ``workers`` and never changes a result
    vectorize: bool = False
    #: when set, adaptive replication helpers
    #: (:func:`repro.simulation.replication.replicate_until`, sweep
    #: generators) grow replicas until the t-interval half-width of
    #: their target statistic drops below this value
    target_ci: Optional[float] = None
    #: arm the runtime sanitizer (:mod:`repro.simulation.sanitize`) for
    #: every simulation launched under this context; installs
    #: ``REPRO_SANITIZE=1`` for the context's scope so forked pool
    #: workers inherit it; an execution detail -- never enters digests
    sanitize: bool = False


_DEFAULT = ExecutionContext()
_current: ExecutionContext = _DEFAULT


def current_execution() -> ExecutionContext:
    """The installed context (the serial/no-cache default otherwise)."""
    return _current


@contextmanager
def use_execution(context: Optional[ExecutionContext] = None, **kwargs):
    """Install an execution context for the enclosed block.

    Pass a ready :class:`ExecutionContext` or its keyword fields::

        with use_execution(workers=4, cache=ResultCache()):
            tables.table_I()          # columns run as one parallel batch
    """
    global _current
    if context is not None and kwargs:
        raise ExecutionError("pass a context object or keyword fields, not both")
    ctx = context if context is not None else ExecutionContext(**kwargs)
    previous = _current
    _current = ctx
    # the engines (and forked pool workers) see the sanitizer through
    # the environment, not the context object -- export it for the
    # block and restore the previous value on the way out
    prior_env = os.environ.get(SANITIZE_ENV)
    if ctx.sanitize:
        os.environ[SANITIZE_ENV] = "1"
    try:
        yield ctx
    finally:
        _current = previous
        if ctx.sanitize:
            if prior_env is None:
                os.environ.pop(SANITIZE_ENV, None)
            else:
                os.environ[SANITIZE_ENV] = prior_env


def run_batch(specs: Sequence[ExperimentSpec], **overrides) -> BatchResult:
    """:func:`~repro.exec.runner.run_many` under the ambient context."""
    ctx = current_execution()
    kwargs = {
        "workers": ctx.workers,
        "cache": ctx.cache,
        "retries": ctx.retries,
        "timeout": ctx.timeout,
        "vectorize": ctx.vectorize,
    }
    kwargs.update(overrides)
    return run_many(specs, **kwargs)


def simulate(
    config: NetworkConfig,
    n_cycles: int,
    warmup: Optional[int] = None,
    label: str = "",
) -> NetworkResult:
    """Run one scenario through the ambient context (cache-aware).

    The single-run convenience used by the figure and correlation-table
    generators; failures are re-raised immediately.
    """
    spec = ExperimentSpec(config=config, n_cycles=n_cycles, warmup=warmup, label=label)
    batch = run_batch([spec]).raise_on_failure()
    return batch.results()[0]
