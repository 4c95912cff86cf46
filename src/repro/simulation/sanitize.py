"""Opt-in runtime invariant checks for the simulation kernels.

``REPRO_SANITIZE=1`` (or :class:`repro.exec.context.ExecutionContext`
with ``sanitize=True``, which exports the variable for its scope) arms
cheap hooks at every window end of the stage-wise pass
(:mod:`repro.simulation.stagewise`) that evaluates serial, stacked and
streamed runs, after the compiled JIT loop, and on the shard-merge
path:

* **finite statistics** -- no NaN/inf ever enters the waiting-time
  moment accumulators (a poisoned wait would otherwise surface only as
  a quietly wrong table entry);
* **non-negative queue depths** -- a negative queue count means a
  pop outran a push (buffer-accounting corruption);
* **message conservation** -- ``injected == completed + in_flight +
  dropped``, per replica;
* **merge consistency** -- a merged shard summary must preserve the
  total message count and the finiteness of every per-replica moment.

Violations raise :class:`~repro.errors.SanitizerError` carrying
cycle/stage/replica coordinates.  The checks are deliberately O(state)
numpy reductions -- small next to evaluating a window -- so a
sanitizer-on run stays well inside the CI overhead budget (<25%).

The hooks read the environment once per ``run()`` (not per window), so
toggling mid-run has no effect -- by design, since a partially
sanitized run proves nothing.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.errors import SanitizerError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.stats import StageAccumulator, StreamingTotals

__all__ = [
    "sanitizer_enabled",
    "check_stage_stats",
    "check_queue_depths",
    "check_conservation",
    "check_merged_totals",
]

#: Environment variable arming the sanitizer.
SANITIZE_ENV = "REPRO_SANITIZE"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def sanitizer_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` requests sanitized runs."""
    return os.environ.get(SANITIZE_ENV, "").strip().lower() in _TRUTHY


def _decode_bin(bin_index: int, n_stages: Optional[int]) -> tuple[Optional[int], int]:
    """``(replica, stage)`` for a flat stat-bin index.

    Serial engines bin by stage alone (``n_stages=None`` -> no replica
    coordinate); batched/streamed engines bin by
    ``replica * n_stages + stage``.
    """
    if n_stages is None:
        return None, bin_index
    return bin_index // n_stages, bin_index % n_stages


def check_stage_stats(
    stats: "StageAccumulator",
    *,
    cycle: Optional[int] = None,
    n_stages: Optional[int] = None,
) -> None:
    """No NaN/inf in any moment accumulator bin."""
    for label, arr in (
        ("shift", stats.shift),
        ("sum", stats.total),
        ("sum of squares", stats.total_sq),
    ):
        finite = np.isfinite(arr)
        if finite.all():
            continue
        bad = int(np.flatnonzero(~finite)[0])
        replica, stage = _decode_bin(bad, n_stages)
        raise SanitizerError(
            f"non-finite waiting-time {label} ({arr[bad]!r}) in the stage "
            "statistics",
            cycle=cycle,
            stage=stage,
            replica=replica,
        )


def check_queue_depths(
    counts: np.ndarray,
    *,
    cycle: Optional[int] = None,
    ports_per_replica: Optional[int] = None,
) -> None:
    """Every queue occupancy is non-negative."""
    if counts.size == 0 or counts.min() >= 0:
        return
    bad = int(np.flatnonzero(counts < 0)[0])
    replica = bad // ports_per_replica if ports_per_replica else None
    raise SanitizerError(
        f"negative queue depth {int(counts[bad])} at port {bad} "
        "(pop outran push: buffer accounting corrupted)",
        cycle=cycle,
        replica=replica,
    )


def check_conservation(
    injected: int,
    completed: int,
    in_flight: int,
    dropped: int = 0,
    *,
    cycle: Optional[int] = None,
    replica: Optional[int] = None,
) -> None:
    """``injected == completed + in_flight + dropped``."""
    if injected != completed + in_flight + dropped:
        raise SanitizerError(
            f"message conservation broken: injected={injected} != "
            f"completed={completed} + in_flight={in_flight} + "
            f"dropped={dropped}",
            cycle=cycle,
            replica=replica,
        )


def check_merged_totals(
    merged: "StreamingTotals",
    parts: "Sequence[StreamingTotals]",
) -> None:
    """A shard merge must preserve counts and moment finiteness."""
    part_count = sum(int(p.counts.sum()) for p in parts)
    merged_count = int(merged.counts.sum())
    if merged_count != part_count:
        raise SanitizerError(
            f"shard merge lost messages: parts hold {part_count} "
            f"completed messages, merged summary holds {merged_count}"
        )
    active = merged.counts > 0
    for label, arr in (
        ("min", merged.mins),
        ("max", merged.maxs),
        ("shifted sum", merged.sums_shifted),
        ("shifted sum of squares", merged.sumsq_shifted),
    ):
        finite = np.isfinite(arr[active])
        if finite.all():
            continue
        bad = int(np.flatnonzero(active)[np.flatnonzero(~finite)[0]])
        raise SanitizerError(
            f"non-finite per-replica {label} after shard merge",
            replica=bad,
        )
