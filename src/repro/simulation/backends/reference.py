"""The NumPy backend: the stage-wise pass over windowed arrivals.

Every output port is a FIFO queue obeying Lindley's recursion, so the
stacked replicas need no per-cycle simulation.  The engine draws the
arrivals window by window
(:meth:`~repro.simulation.batched.BatchedClockedEngine._predraw_window`,
the draws the JIT backend pre-draws too) and
:class:`~repro.simulation.stagewise.StagewisePass` evaluates each window
stage by stage, bit-identical to the cycle loop the JIT backend
compiles.  With the sanitizer armed the pass checks finite statistics,
the backlog and per-replica conservation at every window end.
"""

from __future__ import annotations

# repro: lint-ok RPR001 -- phase timers are wall-clock bookkeeping; never enter results
from time import perf_counter
from typing import TYPE_CHECKING, Optional

from repro.simulation.backends.base import register_backend
from repro.simulation.sanitize import sanitizer_enabled
from repro.simulation.stagewise import StagewisePass

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.simulation.batched import BatchedClockedEngine

__all__ = ["NumpyBackend"]


@register_backend
class NumpyBackend:
    """Stage-wise NumPy evaluation (always available)."""

    name = "numpy"
    requirement = "numpy (a hard dependency; always available)"

    @classmethod
    def is_available(cls) -> bool:
        return True

    @classmethod
    def unsupported_reason(cls, engine: "Optional[BatchedClockedEngine]") -> Optional[str]:
        return None

    def run(self, engine: "BatchedClockedEngine", n_cycles: int, warmup: int) -> None:
        evaluator = StagewisePass(
            engine._perm_stack,
            engine._shifts,
            engine.topology.k,
            engine.n_replicas,
            engine.transfer == "cut_through",
            engine.stats,
            engine.tracker.record,
            sanitize=sanitizer_enabled(),
        )
        timers = engine.timers
        t = 0
        while t < n_cycles:
            t0 = perf_counter()
            t, arrivals = engine._predraw_window(t, n_cycles)
            t1 = perf_counter()
            evaluator.advance(t, arrivals, warmup)
            if timers is not None:
                timers.add("predraw", t1 - t0, backend=self.name)
                timers.add("pass", perf_counter() - t1, backend=self.name)
        engine.completed += evaluator.completed
        engine._finalize(n_cycles, evaluator.queued().port.size, evaluator.high_water)
