"""Pluggable compute backends for the replica-batched engine.

``repro.simulation.backends`` separates *what* a batched run computes
(:class:`~repro.simulation.batched.BatchedClockedEngine` state,
statistics and arrival draws) from *how* the drawn arrivals are
evaluated:

* :class:`~repro.simulation.backends.reference.NumpyBackend` -- the
  stage-wise Lindley pass over windows of arrivals (always available);
* :class:`~repro.simulation.backends.jit.NumbaBackend` -- the whole
  multi-cycle loop compiled to one nopython function over pre-drawn
  arrivals (used automatically when numba is importable).

The two are bit-identical.

Select a backend by name through ``run_stacked``/``run_batched``
(``backend="numpy" | "numba" | "auto"``), the execution layer
(:class:`~repro.exec.context.ExecutionContext`), or the CLI
(``--backend``).  Backend choice never changes results, digests, or
cache keys -- see :mod:`repro.simulation.backends.base` for the
determinism contract and ``docs/backends.md`` for the design.
"""

from repro.simulation.backends.base import (
    BACKEND_CHOICES,
    DEFAULT_BACKEND,
    ComputeBackend,
    available_backends,
    register_backend,
    resolve_backend,
)
from repro.simulation.backends.jit import NumbaBackend, numba_available
from repro.simulation.backends.reference import NumpyBackend

__all__ = [
    "BACKEND_CHOICES",
    "DEFAULT_BACKEND",
    "ComputeBackend",
    "NumbaBackend",
    "NumpyBackend",
    "available_backends",
    "numba_available",
    "register_backend",
    "resolve_backend",
]
