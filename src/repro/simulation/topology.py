"""Multistage interconnection topologies and self-routing.

A banyan network has exactly one path from each network input to each
network output; the classical members differ only in the fixed
inter-stage wiring.  The engine needs just two things from a topology:

* for a message leaving output line ``o`` of stage ``s``, which switch
  of stage ``s+1`` does it reach (the wiring permutation);
* at stage ``s``, which output of that switch does a message destined
  for network output ``d`` take (the routing digit).

Implemented wirings:

:class:`OmegaTopology`
    The perfect-shuffle (omega/Lawrie) network: identical shuffle
    before every stage, destination digits consumed most significant
    first.
:class:`ButterflyTopology`
    The indirect binary/k-ary cube (butterfly) wiring: stage ``s``
    exchanges the ``s``-th highest destination digit.
:class:`BaselineTopology`
    Wu-Feng baseline network: stage ``s`` applies a shuffle on the low
    ``n - s`` digit block.
:class:`RandomRoutingTopology`
    Not a physical wiring at all: a fixed shuffle with *uniform random*
    routing digits.  Under the paper's uniform traffic every message
    picks an independent uniform output at each switch, which makes the
    wiring statistically irrelevant; this topology exploits that to
    decouple the number of stages from the network width (deep-network
    experiments).  The equivalence is itself verified by an ablation
    benchmark.

All physical wirings are property-tested: the inter-stage maps are
permutations, and :func:`trace_path` delivers every (source,
destination) pair correctly.
"""

from __future__ import annotations

import abc
from typing import List, Optional

import numpy as np

from repro.errors import TopologyError

__all__ = [
    "MultistageTopology",
    "OmegaTopology",
    "ButterflyTopology",
    "BaselineTopology",
    "RandomRoutingTopology",
    "check_shape",
    "is_power_of",
    "int_log",
    "perfect_shuffle",
    "trace_path",
    "routability_matrix",
]


def is_power_of(value: int, base: int) -> bool:
    """True iff ``value == base**j`` for some integer ``j >= 0``."""
    if value < 1 or base < 2:
        return False
    while value % base == 0:
        value //= base
    return value == 1


def int_log(value: int, base: int) -> int:
    """Exact integer logarithm; raises if ``value`` is not a power."""
    if not is_power_of(value, base):
        raise TopologyError(f"{value} is not a power of {base}")
    j = 0
    while value > 1:
        value //= base
        j += 1
    return j


def check_shape(
    k: int, n_stages: int, width: Optional[int], routing: str = "any"
) -> None:
    """The shape checks of the topologies, made without building one.

    Every topology has ``k >= 2``, ``n_stages >= 1`` and a ``width`` that
    is a multiple of ``k``.  ``routing="digits"`` (the banyans) needs
    ``width == k**n_stages``; ``routing="virtual"``
    (:class:`RandomRoutingTopology`) a power of ``k`` and a virtual
    destination space that fits int64.  ``width=None`` skips the width
    checks.  Raises :class:`~repro.errors.TopologyError`.
    """
    if k < 2:
        raise TopologyError(f"switch degree must be >= 2, got {k}")
    if n_stages < 1:
        raise TopologyError(f"need >= 1 stage, got {n_stages}")
    if width is None:
        return
    if width % k != 0:
        raise TopologyError(f"width {width} not a multiple of switch degree {k}")
    if routing == "digits":
        # k**n_stages is never formed: n_stages may be absurd
        if not (is_power_of(width, k) and int_log(width, k) == n_stages):
            raise TopologyError(
                f"a banyan requires width == k**n_stages ({k}**{n_stages}), got "
                f"{width}; use RandomRoutingTopology for decoupled width"
            )
    elif routing == "virtual":
        int_log(width, k)  # shuffle requires a k-power width
        if n_stages >= 40 and k >= 3 or n_stages >= 62:
            raise TopologyError(
                f"k**n_stages overflows the int64 virtual destination space "
                f"(k={k}, n_stages={n_stages})"
            )


def perfect_shuffle(width: int, k: int) -> np.ndarray:
    """The k-ary perfect shuffle permutation on ``width = k**n`` lines.

    Left-rotates the base-``k`` digit string of the line index:
    ``sigma(i) = (i * k) mod width + (i * k) div width``.  Returns the
    array ``sigma`` with ``sigma[i]`` the destination line of line ``i``.
    """
    int_log(width, k)  # validates
    i = np.arange(width)
    return (i * k) % width + (i * k) // width


class MultistageTopology(abc.ABC):
    """Base class: ``n_stages`` of ``width/k`` switches, each ``k x k``.

    Line numbering: within each stage, input lines and output lines are
    both numbered ``0 .. width-1``; switch ``w`` owns lines
    ``w*k .. w*k + k - 1`` on both sides.
    """

    def __init__(self, k: int, n_stages: int, width: int, routing: str = "any") -> None:
        check_shape(k, n_stages, width, routing)
        self.k = k
        self.n_stages = n_stages
        self.width = width

    # -- wiring --------------------------------------------------------
    @abc.abstractmethod
    def input_wiring(self, stage: int) -> np.ndarray:
        """Permutation in front of ``stage``: network/previous-stage line
        ``i`` is connected to input line ``perm[i]`` of ``stage``."""

    # -- routing -------------------------------------------------------
    @abc.abstractmethod
    def routing_digits(self, dest: np.ndarray, stage: int) -> np.ndarray:
        """Output-within-switch (``0..k-1``) at ``stage`` for ``dest``."""

    @property
    def supports_destinations(self) -> bool:
        """Whether routing is destination-based (vs. random)."""
        return True

    def routing_shifts(self) -> Optional[np.ndarray]:
        """Per-stage divisors ``shift[s]`` with digit ``= (dest // shift[s]) % k``.

        Returns ``None`` for topologies without digit routing, which the
        engines refuse.  All the digit-routed banyans here consume
        destination digits most significant first, so they share one
        implementation.
        """
        return None

    @property
    def destination_space(self) -> int:
        """Number of distinct destination values messages may carry.

        The network's output count for physical banyans; the virtual
        digit space for :class:`RandomRoutingTopology`.
        """
        return self.width

    @property
    def n_switches(self) -> int:
        """Switches per stage."""
        return self.width // self.k

    # -- derived helpers used by the engine -----------------------------
    def next_queue(
        self, out_lines: np.ndarray, dest: np.ndarray, next_stage: int
    ) -> np.ndarray:
        """Output-queue line at ``next_stage`` for messages leaving
        ``out_lines`` of the previous stage with destinations ``dest``."""
        perm = self.input_wiring(next_stage)
        in_lines = perm[out_lines]
        digits = self.routing_digits(dest, next_stage)
        return (in_lines // self.k) * self.k + digits

    def entry_queue(self, sources: np.ndarray, dest: np.ndarray) -> np.ndarray:
        """First-stage output-queue line for fresh messages injected at
        network inputs ``sources``."""
        perm = self.input_wiring(0)
        in_lines = perm[sources]
        digits = self.routing_digits(dest, 0)
        return (in_lines // self.k) * self.k + digits

    # -- interoperability ------------------------------------------------
    def to_networkx(self):
        """Directed graph of the network (requires :mod:`networkx`).

        Nodes: ``("in", i)``, ``("sw", stage, w)``, ``("out", i)``.
        Edges follow the physical wiring; switch nodes are complete
        crossbars internally (collapsed to a single node).
        """
        import networkx as nx

        g = nx.DiGraph()
        for i in range(self.width):
            g.add_node(("in", i))
            g.add_node(("out", i))
        for s in range(self.n_stages):
            for w in range(self.n_switches):
                g.add_node(("sw", s, w))
        perm0 = self.input_wiring(0)
        for i in range(self.width):
            g.add_edge(("in", i), ("sw", 0, perm0[i] // self.k))
        for s in range(1, self.n_stages):
            perm = self.input_wiring(s)
            for o in range(self.width):
                g.add_edge(("sw", s - 1, o // self.k), ("sw", s, perm[o] // self.k))
        for o in range(self.width):
            g.add_edge(("sw", self.n_stages - 1, o // self.k), ("out", o))
        return g

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(k={self.k}, n_stages={self.n_stages}, "
            f"width={self.width})"
        )


class _DigitRoutedTopology(MultistageTopology):
    """Shared machinery for destination-digit routed banyans."""

    def __init__(self, k: int, n_stages: int, width: Optional[int] = None) -> None:
        if width is None:
            width = k ** n_stages
        super().__init__(k, n_stages, width, routing="digits")

    def routing_digits(self, dest: np.ndarray, stage: int) -> np.ndarray:
        """Consume destination digits most significant first."""
        shift = self.k ** (self.n_stages - 1 - stage)
        return (np.asarray(dest) // shift) % self.k

    def routing_shifts(self) -> Optional[np.ndarray]:
        n, k = self.n_stages, self.k
        return np.array([k ** (n - 1 - s) for s in range(n)], dtype=np.int64)


class OmegaTopology(_DigitRoutedTopology):
    """Lawrie's omega network: perfect shuffle before every stage."""

    def __init__(self, k: int, n_stages: int, width: Optional[int] = None) -> None:
        super().__init__(k, n_stages, width)
        self._shuffle = perfect_shuffle(self.width, k)

    def input_wiring(self, stage: int) -> np.ndarray:
        return self._shuffle


class ButterflyTopology(_DigitRoutedTopology):
    """Indirect k-ary cube (butterfly): stage ``s`` fixes digit ``n-1-s``.

    At stage ``s`` the lines sharing a switch must agree on all digits
    except position ``n-1-s``; in the engine's convention switches own
    lines agreeing on all digits except position 0, so the wiring in
    front of stage ``s`` swaps digit positions ``0`` and ``n-1-s``.
    Because the previous stage's output lines are still in *its* swapped
    coordinates, each inter-stage wiring composes the previous exchange
    (an involution, so it undoes itself) with the current one.  The
    final stage's exchange is the identity (position 0 is already
    local), so network outputs come out in canonical numbering.
    """

    def __init__(self, k: int, n_stages: int, width: Optional[int] = None) -> None:
        super().__init__(k, n_stages, width)
        exchanges = [self._exchange_perm(s) for s in range(self.n_stages)]
        self._perms = [exchanges[0]]
        for s in range(1, self.n_stages):
            self._perms.append(exchanges[s][exchanges[s - 1]])

    def _exchange_perm(self, stage: int) -> np.ndarray:
        n = self.n_stages
        k = self.k
        i = np.arange(self.width)
        # digit positions counted from the least significant (0) end;
        # the switch-local digit is position 0.
        pos = n - 1 - stage
        if pos == 0:
            return i.copy()
        low = i % k                      # digit at position 0
        mid = (i // k ** pos) % k        # digit at position pos
        rest = i - low - mid * k ** pos
        return rest + mid + low * k ** pos

    def input_wiring(self, stage: int) -> np.ndarray:
        return self._perms[stage]


class BaselineTopology(_DigitRoutedTopology):
    """Wu-Feng baseline network (recursive halving construction).

    Stage 0 takes adjacent inputs directly (identity wiring) and sends a
    message to the sub-network selected by the most significant
    destination digit; the wiring between stages ``s-1`` and ``s`` is an
    *inverse* k-ary shuffle within blocks of ``k**(n-s+1)`` lines, which
    is exactly "deal the switch outputs into the k sub-networks".
    """

    def __init__(self, k: int, n_stages: int, width: Optional[int] = None) -> None:
        super().__init__(k, n_stages, width)
        self._perms = [self._wiring(s) for s in range(self.n_stages)]

    def _wiring(self, stage: int) -> np.ndarray:
        i = np.arange(self.width)
        if stage == 0:
            return i.copy()
        block = self.k ** (self.n_stages - stage + 1)
        base = (i // block) * block
        j = i % block
        rotated = j // self.k + (j % self.k) * (block // self.k)  # inverse shuffle
        return base + rotated

    def input_wiring(self, stage: int) -> np.ndarray:
        return self._perms[stage]


class RandomRoutingTopology(MultistageTopology):
    """Fixed shuffle wiring with virtual-destination routing.

    Statistically equivalent to any banyan under uniform traffic (each
    message takes an independent uniform switch output at every stage),
    but ``width`` and ``n_stages`` are independent -- a 12-stage network
    can be simulated at width 128 instead of 4096.  Messages carry a
    *virtual destination* drawn uniformly from ``k**n_stages`` values
    (see :attr:`destination_space`), providing one fresh uniform digit
    per stage; packets of one bulk share the virtual destination and so
    stay together, exactly as they would follow one physical path.

    :attr:`supports_destinations` is False -- the virtual destination is
    not a network output, so favourite-output traffic (which needs a
    real input-to-output mapping) is refused on this topology.
    """

    def __init__(self, k: int, n_stages: int, width: int) -> None:
        super().__init__(k, n_stages, width, routing="virtual")
        self._shuffle = perfect_shuffle(width, k)

    @property
    def supports_destinations(self) -> bool:
        return False

    @property
    def destination_space(self) -> int:
        return self.k ** self.n_stages

    def input_wiring(self, stage: int) -> np.ndarray:
        return self._shuffle

    def routing_digits(self, dest: np.ndarray, stage: int) -> np.ndarray:
        shift = self.k ** (self.n_stages - 1 - stage)
        return (np.asarray(dest) // shift) % self.k

    def routing_shifts(self) -> Optional[np.ndarray]:
        n, k = self.n_stages, self.k
        return np.array([k ** (n - 1 - s) for s in range(n)], dtype=np.int64)


# ----------------------------------------------------------------------
# verification helpers
# ----------------------------------------------------------------------

def trace_path(topology: MultistageTopology, source: int, dest: int) -> List[int]:
    """Output-queue line at each stage for a lone (source, dest) message.

    Returns a list of ``n_stages`` line indices; the last one is the
    network output reached, which for a correct banyan equals ``dest``.
    """
    if not topology.supports_destinations:
        raise TopologyError("path tracing requires destination routing")
    line = np.asarray([source])
    d = np.asarray([dest])
    path: List[int] = []
    q = topology.entry_queue(line, d)
    path.append(int(q[0]))
    for s in range(1, topology.n_stages):
        q = topology.next_queue(q, d, s)
        path.append(int(q[0]))
    return path


def routability_matrix(topology: MultistageTopology) -> np.ndarray:
    """``reached[src, dst]``: the network output actually reached.

    A correct banyan yields ``reached[src, dst] == dst`` for all pairs.
    Vectorised over all ``width**2`` pairs.
    """
    w = topology.width
    src, dst = np.meshgrid(np.arange(w), np.arange(w), indexing="ij")
    src, dst = src.ravel(), dst.ravel()
    q = topology.entry_queue(src, dst)
    for s in range(1, topology.n_stages):
        q = topology.next_queue(q, dst, s)
    return q.reshape(w, w)
