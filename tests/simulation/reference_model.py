"""A deliberately naive reference simulator for differential testing.

This model trades all performance for obviousness: messages are Python
objects, queues are lists, and each cycle walks every port in a plain
loop.  It implements exactly the semantics the vectorised engine claims:

* output-queued ``k x k`` switches, FIFO service;
* a message arriving at cycle ``t`` may start service at cycle ``t``;
* on service start at ``t`` the port stays busy ``service`` cycles and
  the message joins the next stage with arrival ``t + 1`` (cut-through)
  or ``t + service`` (store-and-forward);
* waiting time = service start - queue arrival.

The differential tests drive both simulators with *identical
pre-generated traffic* and require identical per-message waiting times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Literal, Optional, Tuple

import numpy as np

from repro.simulation.topology import MultistageTopology


@dataclass
class RefMessage:
    msg_id: int
    dest: int
    service: int
    arrival: int  # at the current queue


@dataclass
class ReferenceNetwork:
    """Pure-Python clocked network with the engine's semantics."""

    topology: MultistageTopology
    transfer: Literal["cut_through", "store_forward"] = "cut_through"
    buffer_capacity: Optional[int] = None

    def __post_init__(self) -> None:
        n_ports = self.topology.n_stages * self.topology.width
        self.queues: List[List[RefMessage]] = [[] for _ in range(n_ports)]
        self.busy = [0] * n_ports
        self.now = 0
        #: (msg_id, stage) -> waiting time
        self.waits: Dict[Tuple[int, int], int] = {}
        #: (msg_id, stage) -> service start cycle
        self.starts: Dict[Tuple[int, int], int] = {}
        #: per-port queue length high-water marks
        self.high_water = [0] * n_ports
        self.completed: List[int] = []
        self.dropped = 0

    # ------------------------------------------------------------------
    def inject(self, sources, dests, services, msg_ids) -> None:
        """Fresh messages entering the first stage this cycle."""
        entry = self.topology.entry_queue(np.asarray(sources), np.asarray(dests))
        for line, dest, service, mid in zip(entry, dests, services, msg_ids, strict=True):
            self._enqueue(int(line), RefMessage(int(mid), int(dest), int(service), self.now))

    def _enqueue(self, port: int, msg: RefMessage) -> None:
        if self.buffer_capacity is not None and len(self.queues[port]) >= self.buffer_capacity:
            self.dropped += 1
            return
        self.queues[port].append(msg)
        self.high_water[port] = max(self.high_water[port], len(self.queues[port]))

    def step_service(self) -> None:
        """Serve every idle port whose head has arrived; then tick."""
        width = self.topology.width
        moves: List[Tuple[int, RefMessage]] = []
        for port, queue in enumerate(self.queues):
            if self.busy[port] > 0 or not queue:
                continue
            head = queue[0]
            if head.arrival > self.now:
                continue
            queue.pop(0)
            stage = port // width
            self.waits[(head.msg_id, stage)] = self.now - head.arrival
            self.starts[(head.msg_id, stage)] = self.now
            self.busy[port] = head.service
            if stage == self.topology.n_stages - 1:
                self.completed.append(head.msg_id)
            else:
                line = port % width
                nxt = self.topology.next_queue(
                    np.asarray([line]), np.asarray([head.dest]), stage + 1
                )[0]
                arrival = self.now + 1 if self.transfer == "cut_through" else self.now + head.service
                moves.append(
                    (
                        (stage + 1) * width + int(nxt),
                        RefMessage(head.msg_id, head.dest, head.service, arrival),
                    )
                )
        for port, msg in moves:
            self._enqueue(port, msg)
        for port in range(len(self.busy)):
            if self.busy[port] > 0:
                self.busy[port] -= 1
        self.now += 1

    def run_with_traffic(self, traffic_by_cycle) -> None:
        """Drive with a pre-generated list of per-cycle injections."""
        for sources, dests, services, msg_ids in traffic_by_cycle:
            if len(sources):
                self.inject(sources, dests, services, msg_ids)
            self.step_service()
