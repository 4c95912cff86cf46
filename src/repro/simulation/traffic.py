"""First-stage traffic generation for the network simulator.

Per clock cycle, each of the ``width`` network inputs independently
receives a message with probability ``p``; a message is ``bulk_size``
packets injected together (Section III-A-2), each packet carrying the
same destination; service (transmission) time per packet comes from the
scenario's service model (one cycle for the bulk model, ``m`` cycles
for the Section III-D multi-packet model, a mixture for Section IV-C).

Destinations are uniform over the network outputs, except with
favourite bias ``q`` (Section III-A-3/IV-D): with probability ``q``
the destination is ``favorite[input]`` (a permutation -- each output is
some input's private memory), otherwise uniform.

Draw blocks
-----------
One generator is one replica's traffic stream.  It draws its arrivals
in blocks of :data:`BLOCK_CYCLES` cycles, always in this order: one
``(BLOCK_CYCLES, width)`` uniform block of injection coins, the
destinations of the active slots in cycle-major order, the favourite
gate, bulk expansion (no draws), then the service times.  Block ``j``
covers cycles ``[j * BLOCK_CYCLES, (j + 1) * BLOCK_CYCLES)`` of the
run, so a replica's arrivals depend only on its own stream -- never on
how long a run is, how it is cut into windows or runs, or which other
replicas share its engine.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro.errors import ModelError
from repro.service.base import ServiceProcess

__all__ = ["BLOCK_CYCLES", "BlockArrivals", "NetworkTrafficGenerator", "check_load"]

#: Cycles per draw block: every replica's arrivals are drawn on this
#: fixed grid, starting at cycle 0.
BLOCK_CYCLES = 256


def check_load(p: float, q: float, bulk_size: int) -> None:
    """The offered-load checks of a traffic stream (raises
    :class:`~repro.errors.ModelError`): ``p`` and ``q`` in ``[0, 1]`` and
    bulks of at least one packet."""
    if not 0 <= p <= 1:
        raise ModelError(f"input load p={p} outside [0, 1]")
    if not 0 <= q <= 1:
        raise ModelError(f"favourite bias q={q} outside [0, 1]")
    if bulk_size < 1:
        raise ModelError(f"bulk size must be >= 1, got {bulk_size}")


class BlockArrivals(NamedTuple):
    """Packets injected in one block of cycles, in injection order."""

    cycles: np.ndarray  # cycle within the block
    sources: np.ndarray
    destinations: np.ndarray
    services: np.ndarray


class NetworkTrafficGenerator:
    """One replica's message source, drawn a block of cycles at a time.

    Parameters
    ----------
    width:
        Number of network inputs (= outputs).
    p:
        Per-input message probability per cycle.
    service:
        Service-time model for individual packets/messages.
    rng:
        Generator for all of this replica's traffic randomness.
    bulk_size:
        Packets per message batch (each serviced separately).
    q:
        Favourite-output bias.
    favorite:
        Favourite permutation (default: identity -- input ``i``'s
        private memory is output ``i``).
    dest_space:
        Number of destination values (defaults to ``width``; the
        width-decoupled topology uses its virtual digit space instead).
        Favourite bias requires ``dest_space == width``.
    """

    def __init__(
        self,
        width: int,
        p: float,
        service: ServiceProcess,
        rng: np.random.Generator,
        bulk_size: int = 1,
        q: float = 0.0,
        favorite: Optional[np.ndarray] = None,
        dest_space: Optional[int] = None,
    ) -> None:
        if width < 1:
            raise ModelError(f"width must be >= 1, got {width}")
        check_load(p, q, bulk_size)
        self.width = width
        self.p = float(p)
        self.q = float(q)
        self.bulk_size = int(bulk_size)
        self.service = service
        self.rng = rng
        self.dest_space = width if dest_space is None else int(dest_space)
        if self.dest_space < 1:
            raise ModelError(f"dest_space must be >= 1, got {self.dest_space}")
        if self.q > 0 and self.dest_space != width:
            raise ModelError(
                "favourite bias requires real destinations (dest_space == width)"
            )
        if favorite is None:
            favorite = np.arange(width)
        favorite = np.asarray(favorite)
        if sorted(favorite.tolist()) != list(range(width)):
            raise ModelError("favorite map must be a permutation of the outputs")
        self.favorite = favorite
        #: total packets drawn so far (offered load bookkeeping)
        self.injected = 0

    def generate_batch(self) -> BlockArrivals:
        """The arrivals of the next :data:`BLOCK_CYCLES` cycles.

        Draws in the block order of the module notes, so block ``j`` of
        a stream is a pure function of the stream's seed and ``j``.
        """
        coins = self.rng.random((BLOCK_CYCLES, self.width))
        cycles, sources = np.nonzero(coins < self.p)
        dests = self.rng.integers(0, self.dest_space, size=cycles.size)
        if self.q > 0:
            use_fav = self.rng.random(cycles.size) < self.q
            dests = np.where(use_fav, self.favorite[sources], dests)
        if self.bulk_size > 1:
            cycles = np.repeat(cycles, self.bulk_size)
            sources = np.repeat(sources, self.bulk_size)
            dests = np.repeat(dests, self.bulk_size)
        services = np.asarray(self.service.sample(self.rng, cycles.size), dtype=np.int64)
        self.injected += cycles.size
        return BlockArrivals(cycles, sources, dests, services)

    def generate(self) -> BlockArrivals:
        """The arrivals of the next block: :meth:`generate_batch` under
        its older name (``bench/spans.py`` times both)."""
        return self.generate_batch()

    @property
    def offered_load(self) -> float:
        """Mean packets injected per input per cycle (``p * bulk_size``)."""
        return self.p * self.bulk_size
