"""Bi-directional on-chip ring interconnect (Table 1).

Nodes are the cores plus the L3 banks; the ring is bi-directional so a
message takes the shorter direction.  Hop latency is one cycle.  The ring
in the paper's machine is 64 bytes wide — a whole cache line per flit — so
by default we model latency (hops) and treat link bandwidth as
unconstrained; the off-chip bus, not the ring, is the contended resource
the paper studies, and its Section 9 explicitly leaves ring contention
to future work.

For that future work, ``link_occupancy > 0`` turns on per-link
bandwidth modeling: each directed link accepts one message every
``link_occupancy`` cycles (a narrower ring needs several cycles per
64-byte message), and :meth:`reserve` walks the path reserving each
link — coherence traffic then genuinely contends on shared segments.
The memory port counts the messages and hops it sends; :meth:`reserve`
only times them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class RingStats:
    """Aggregate traffic counters."""

    messages: int = 0
    total_hops: int = 0
    link_wait_cycles: int = 0

    @property
    def mean_hops(self) -> float:
        if not self.messages:
            return 0.0
        return self.total_hops / self.messages


class Ring:
    """Bi-directional ring of ``num_nodes`` stations.

    Node numbering: cores occupy nodes ``0 .. num_cores-1``; L3 banks are
    interleaved around the ring by :class:`repro.sim.machine.Machine`.
    """

    __slots__ = ("num_nodes", "hop_latency", "link_occupancy", "stats",
                 "dist", "_link_free")

    def __init__(self, num_nodes: int, hop_latency: int = 1,
                 link_occupancy: int = 0) -> None:
        if num_nodes < 1:
            raise ValueError("ring needs at least one node")
        if hop_latency < 0:
            raise ValueError("hop latency must be non-negative")
        if link_occupancy < 0:
            raise ValueError("link occupancy must be non-negative")
        self.num_nodes = num_nodes
        self.hop_latency = hop_latency
        self.link_occupancy = link_occupancy
        self.stats = RingStats()
        #: Hop counts depend only on the index distance:
        #: ``dist[(dst - src) % num_nodes]``.  Read directly by callers
        #: that have already range-checked their nodes (:meth:`hops`
        #: checks per call).
        self.dist = [min(d, num_nodes - d) for d in range(num_nodes)]
        # Directed links: [node][0] = clockwise (node -> node+1),
        # [node][1] = counter-clockwise (node -> node-1).
        self._link_free = [[0, 0] for _ in range(num_nodes)]

    def hops(self, src: int, dst: int) -> int:
        """Shortest-direction hop count between two nodes."""
        if not (0 <= src < self.num_nodes and 0 <= dst < self.num_nodes):
            raise ValueError(f"node out of range: {src} -> {dst} of {self.num_nodes}")
        return self.dist[(dst - src) % self.num_nodes]

    def reserve(self, now: int, src: int, dst: int) -> int:
        """Absolute arrival time of a message sent at cycle ``now``.

        The message reserves each directed link on its shortest path in
        turn, waiting behind earlier traffic, and the wait is added to
        ``stats.link_wait_cycles``; the message and its hops are the
        sender's to count.  With ``link_occupancy == 0`` no link is ever
        busy, and this is ``now + hops * hop_latency``.
        """
        n = self.num_nodes
        clockwise_hops = (dst - src) % n
        h = self.dist[clockwise_hops]
        if self.link_occupancy == 0:
            return now + h * self.hop_latency

        step_cw = clockwise_hops == h  # shorter direction
        t = now
        node = src
        for _ in range(h):
            if step_cw:
                link = self._link_free[node]
                idx = 0
                nxt = (node + 1) % n
            else:
                link = self._link_free[node]
                idx = 1
                nxt = (node - 1) % n
            start = max(t, link[idx])
            self.stats.link_wait_cycles += start - t
            link[idx] = start + self.link_occupancy
            t = start + self.hop_latency
            node = nxt
        return t
