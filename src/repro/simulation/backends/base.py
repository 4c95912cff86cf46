"""The ``ComputeBackend`` protocol and backend registry.

The split follows the "Python orchestrates; the backend computes"
design: :class:`~repro.simulation.batched.BatchedClockedEngine` owns
model *state* (accumulators, trackers, per-replica counters, queue
high-water marks), the run *policy* (cycle budget, warm-up) and the
arrival draws, while a backend owns the *evaluation* of those arrivals.
The contract is the same for every backend: a fresh, digit-routed,
infinite-buffer engine (what ``_build_stacked_engine`` builds) runs once
and is then finalized -- statistics, tracker, ``injected``,
``completed``, the honest ``in_flight`` count and the queue high-water
marks are left exactly as the paper's clocked model defines them.
:func:`resolve_backend` refuses any other engine.

Determinism contract
--------------------
Backends must be **bit-identical** to each other -- not statistically
equivalent, identical.  All randomness of a batched run is drawn by
:meth:`~repro.simulation.batched.BatchedClockedEngine._predraw_window`
(one
:meth:`~repro.simulation.traffic.NetworkTrafficGenerator.generate_batch`
per cycle; the built-in topologies route by destination digits and
consume no routing RNG), which every backend calls, so every backend
gets the same sample path; the remaining freedom -- accumulation order
of integer-valued waits in float64 bins -- is exact below 2**53 and
therefore order-independent.  See ``docs/backends.md``.

Backend *selection* is an execution detail, never an identity: it does
not appear in :class:`~repro.simulation.network.NetworkConfig`, in
:meth:`~repro.exec.spec.ExperimentSpec.identity`, or in any cache
digest (test-asserted).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Protocol, Type, Union, runtime_checkable

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.simulation.batched import BatchedClockedEngine

__all__ = [
    "BACKEND_CHOICES",
    "DEFAULT_BACKEND",
    "ComputeBackend",
    "available_backends",
    "register_backend",
    "resolve_backend",
]

#: Values accepted wherever a backend is named (CLI, context, runners).
BACKEND_CHOICES = ("numpy", "numba", "auto")

#: ``auto`` picks the fastest available backend that supports the
#: engine, falling back to the NumPy pass when numba is absent.
DEFAULT_BACKEND = "auto"


@runtime_checkable
class ComputeBackend(Protocol):
    """What the batched engine needs from an executor."""

    #: short identifier recorded on results, manifests, and timers
    name: str

    @classmethod
    def is_available(cls) -> bool:
        """Whether this backend's dependencies are importable here."""
        ...

    @classmethod
    def unsupported_reason(cls, engine: "Optional[BatchedClockedEngine]") -> Optional[str]:
        """``None`` if this backend can run ``engine`` (``None``: any engine
        within the shared contract), else why not."""
        ...

    def run(self, engine: "BatchedClockedEngine", n_cycles: int, warmup: int) -> None:
        """Run ``engine`` for ``n_cycles``, measuring from ``warmup``, and
        finalize it."""
        ...


_REGISTRY: Dict[str, Type] = {}


def register_backend(cls: Type) -> Type:
    """Register a backend class under its ``name`` (import-time hook)."""
    _REGISTRY[cls.name] = cls
    return cls


def available_backends() -> List[str]:
    """Names of the registered backends importable in this environment."""
    return [name for name, cls in sorted(_REGISTRY.items()) if cls.is_available()]


def resolve_backend(
    backend: Union[str, ComputeBackend, None],
    engine: "Optional[BatchedClockedEngine]",
) -> ComputeBackend:
    """Turn a backend request into a ready instance for ``engine``.

    First refuses an engine outside the contract every backend shares
    (module notes): one whose topology has no digit table, or one that
    already ran (``engine=None`` resolves the request alone, e.g. to
    see what ``"auto"`` picks here).  ``"auto"`` (or ``None``) degrades
    cleanly: the JIT backend is chosen only when numba is importable
    *and* it supports the engine; otherwise the NumPy pass runs.  An
    *explicit* name is strict -- asking for ``"numba"`` without numba
    raises with the reason.  A ready :class:`ComputeBackend` instance
    passes through (after a support check), which is how the
    equivalence tests drive the pre-drawn loop through its pure-Python
    kernel.
    """
    if engine is not None:
        if engine._shifts is None:
            raise SimulationError(
                "stacked backends need a digit-routed topology: routing_shifts() "
                "is None, so forwarding would draw from the routing RNG"
            )
        if engine.now != 0:
            raise SimulationError(
                "a stacked engine runs once and is then finalized; build a "
                "fresh engine to simulate further"
            )
    if backend is None or backend == DEFAULT_BACKEND:
        jit_cls = _REGISTRY.get("numba")
        if (
            jit_cls is not None
            and jit_cls.is_available()
            and jit_cls.unsupported_reason(engine) is None
        ):
            return jit_cls()  # type: ignore[no-any-return]
        return _REGISTRY["numpy"]()  # type: ignore[no-any-return]
    if isinstance(backend, str):
        cls = _REGISTRY.get(backend)
        if cls is None:
            raise SimulationError(
                f"unknown compute backend {backend!r}; choose one of "
                f"{sorted(_REGISTRY)} or 'auto'"
            )
        if not cls.is_available():
            raise SimulationError(
                f"compute backend {backend!r} is not available: "
                f"{getattr(cls, 'requirement', 'missing dependency')}"
            )
        reason = cls.unsupported_reason(engine)
        if reason is not None:
            raise SimulationError(
                f"compute backend {backend!r} cannot run this engine: {reason}"
            )
        return cls()  # type: ignore[no-any-return]
    reason = type(backend).unsupported_reason(engine)
    if reason is not None:
        raise SimulationError(
            f"compute backend {backend.name!r} cannot run this engine: {reason}"
        )
    return backend
