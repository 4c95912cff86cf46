"""Vectorised FIFO output queues (the buffered switch substrate).

Every output port of every switch in the network is a FIFO queue.  No
engine steps them any more -- the stage-wise pass
(:mod:`repro.simulation.stagewise`) keeps each window's queues as
arrays -- but the benchmark's span recorder (``bench/spans.py``) still
wraps these operations by name.  :class:`RingBufferQueues`
stores ``n_queues`` fixed-capacity ring buffers as 2-D NumPy arrays --
one row per queue, one array per message field -- and supports the two
bulk operations a clock cycle needs:

* :meth:`push_batch` -- append many messages, possibly several to the
  *same* queue in one cycle (the paper's assumption that "each output
  port buffer can accept any number of messages from the input ports in
  a clock cycle");
* :meth:`pop` -- remove the head of each queue in a given set.

Infinite buffers are emulated by growing capacity on demand (doubling),
so the idealised model of the paper is exact; a *finite* buffer mode
rejects pushes beyond a fixed capacity and reports them, supporting the
finite-buffer ablation the paper lists as future work.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.errors import SimulationError

__all__ = ["RingBufferQueues"]


class RingBufferQueues:
    """``n_queues`` parallel FIFO ring buffers with named integer fields.

    Parameters
    ----------
    n_queues:
        Number of queues (network output ports).
    fields:
        Mapping of field name to NumPy dtype, e.g.
        ``{"dest": np.int32, "arrival": np.int64}``.
    capacity:
        Initial per-queue capacity (grows automatically unless
        ``finite`` is set).
    finite:
        If True the capacity is a hard limit: overfull pushes are
        dropped and counted in :attr:`dropped`.
    """

    def __init__(
        self,
        n_queues: int,
        fields: Dict[str, np.dtype],
        capacity: int = 64,
        finite: bool = False,
    ) -> None:
        if n_queues < 1:
            raise SimulationError(f"need at least one queue, got {n_queues}")
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.n_queues = n_queues
        self.capacity = capacity
        self.finite = finite
        self._fields = {
            name: np.zeros((n_queues, capacity), dtype=dtype)
            for name, dtype in fields.items()
        }
        self._head = np.zeros(n_queues, dtype=np.int64)
        self._count = np.zeros(n_queues, dtype=np.int64)
        # per-queue occupancy high-water marks, updated only for the
        # queues touched by each push (never an O(n_queues) scan)
        self._high_water = np.zeros(n_queues, dtype=np.int64)
        # scratch for the duplicate-rank peeling in push_batch
        self._first_pos = np.empty(n_queues, dtype=np.int64)
        # push_batch runs every cycle: its per-call temporaries (the
        # 0..n-1 ramp and the rank vector) are hoisted into buffers
        # grown on demand and reused across cycles
        self._iota = np.empty(0, dtype=np.int64)
        self._rank = np.empty(0, dtype=np.int64)
        #: messages rejected by finite buffers (finite mode only)
        self.dropped = 0

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def counts(self) -> np.ndarray:
        """Current length of every queue (read-only view)."""
        return self._count

    @property
    def max_occupancy(self) -> int:
        """High-water mark of any queue length, for buffer sizing studies."""
        return int(self._high_water.max())

    def high_water(self) -> np.ndarray:
        """Per-queue occupancy high-water marks (read-only view).

        Lets a caller that partitions the queues (e.g. the
        replica-batched engine, one block of queues per replica) report
        a high-water mark per partition instead of one global scalar.
        """
        return self._high_water

    def total_occupancy(self) -> int:
        """Total messages currently buffered."""
        return int(self._count.sum())

    def peek(self, queues: np.ndarray, field: str) -> np.ndarray:
        """Field value at the head of each queue in ``queues``.

        Caller must ensure the queues are non-empty.
        """
        idx = self._head[queues] % self.capacity
        return self._fields[field][queues, idx]

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def push_batch(self, queues: np.ndarray, **values: np.ndarray) -> int:
        """Append one message per entry of ``queues`` (repeats allowed).

        ``values`` must supply every field.  Messages bound for the same
        queue are appended in their order of appearance.  Returns the
        number actually stored (less than ``len(queues)`` only in finite
        mode, where the overflow is *dropped* and tallied).
        """
        queues = np.asarray(queues)
        n = queues.size
        if n == 0:
            return 0
        if set(values) != set(self._fields):
            raise SimulationError(
                f"push_batch needs fields {sorted(self._fields)}, got {sorted(values)}"
            )
        binc = np.bincount(queues, minlength=self.n_queues)
        rank = self._appearance_ranks(queues, binc)

        slots = self._count[queues] + rank
        needed = int(slots.max()) + 1
        if needed > self.capacity:
            if self.finite:
                keep = slots < self.capacity
                self.dropped += int((~keep).sum())
                queues, slots = queues[keep], slots[keep]
                values = {k: np.asarray(v)[keep] for k, v in values.items()}
                if queues.size == 0:
                    return 0
                binc = np.bincount(queues, minlength=self.n_queues)
            else:
                self._grow(needed)
        pos = (self._head[queues] + slots) % self.capacity
        for name, arr in values.items():
            self._fields[name][queues, pos] = arr
        self._count += binc
        # `slots + 1` is each message's queue length the instant it is
        # stored, so the touched queues' high-water marks update in
        # O(batch) -- no scan over all n_queues
        np.maximum.at(self._high_water, queues, slots + 1)
        return int(queues.size)

    def _appearance_ranks(self, queues: np.ndarray, binc: np.ndarray) -> np.ndarray:
        """Rank of each message among same-queue messages of one push.

        ``rank[i]`` = how many earlier entries of ``queues`` name the
        same queue (FIFO order of appearance).  The common case -- no
        queue named twice -- is detected from the bincount in O(batch)
        and costs nothing more.  Duplicates are resolved by peeling:
        each pass marks the first remaining message of every queue
        (reverse scatter, so the earliest write wins) and assigns it the
        pass number, finishing in max-multiplicity passes -- O(batch)
        per pass with no sort, vs. the stable argsort this replaces.
        """
        n = queues.size
        if self._rank.size < n:
            self._rank = np.empty(max(n, 2 * self._rank.size), dtype=np.int64)
        rank = self._rank[:n]
        rank.fill(0)
        if int(binc[queues].max()) == 1:
            return rank
        scratch = self._first_pos
        idx = self._arange(n)
        remaining_q = queues
        level = 0
        while remaining_q.size:
            pos = self._arange(remaining_q.size)
            scratch[remaining_q[::-1]] = pos[::-1]
            is_first = scratch[remaining_q] == pos
            rank[idx[is_first]] = level
            idx = idx[~is_first]
            remaining_q = remaining_q[~is_first]
            level += 1
        return rank

    def _arange(self, n: int) -> np.ndarray:
        """A read-only-by-convention view of ``[0, n)`` from scratch."""
        if self._iota.size < n:
            self._iota = np.arange(max(n, 2 * self._iota.size), dtype=np.int64)
        return self._iota[:n]

    def pop(self, queues: np.ndarray) -> Dict[str, np.ndarray]:
        """Remove and return the head message of each queue in ``queues``.

        Caller must ensure the queues are non-empty and distinct; a pop
        touching any empty queue raises *before* mutating, so the queue
        state survives the error intact.
        """
        queues = np.asarray(queues)
        if (self._count[queues] < 1).any():
            raise SimulationError("pop from an empty queue")
        idx = self._head[queues] % self.capacity
        out = {name: arr[queues, idx].copy() for name, arr in self._fields.items()}
        self._head[queues] += 1
        self._count[queues] -= 1
        return out

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _grow(self, needed: int) -> None:
        """Double capacity (at least to ``needed``), linearising rings."""
        new_cap = self.capacity
        while new_cap < needed:
            new_cap *= 2
        rows = np.arange(self.n_queues)[:, None]
        take = (self._head[:, None] + np.arange(self.capacity)[None, :]) % self.capacity
        for name, arr in self._fields.items():
            new_arr = np.zeros((self.n_queues, new_cap), dtype=arr.dtype)
            new_arr[:, : self.capacity] = arr[rows, take]
            self._fields[name] = new_arr
        self._head[:] = 0
        self.capacity = new_cap

    def __repr__(self) -> str:
        return (
            f"RingBufferQueues(n_queues={self.n_queues}, capacity={self.capacity}, "
            f"finite={self.finite}, occupied={self.total_occupancy()})"
        )
