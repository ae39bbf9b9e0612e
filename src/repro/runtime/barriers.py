"""Sense-reversing barriers for thread teams.

A barrier is identified by an integer id and is reusable: the arrival set
empties each time the whole team arrives, so the same id can be used
in a loop (the common OpenMP pattern the paper's kernels rely on —
PageMine's per-page barrier, for example).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - break the sim <-> runtime cycle
    from repro.sim.config import MachineConfig
    from repro.sim.observer import SimObserver
    from repro.sim.ring import Ring


@dataclass(slots=True)
class BarrierStats:
    """Aggregate barrier counters."""

    episodes: int = 0
    total_wait_cycles: int = 0


class BarrierManager:
    """All barriers of the machine."""

    def __init__(self, config: "MachineConfig", ring: "Ring",
                 core_nodes: list[int],
                 observer: "SimObserver | None" = None) -> None:
        self._hop_latency = config.ring_hop_latency
        #: Core nodes come from the machine's own placement, so release
        #: delays index the ring's distance list unchecked.
        self._dist = ring.dist
        self._core_nodes = core_nodes
        #: Per barrier id, the waiting cores and their arrival cycles,
        #: in arrival order.
        self._barriers: dict[int, dict[int, int]] = {}
        #: Observer (repro.sim.observer); never affects release timing.
        self._observer = observer
        self.stats = BarrierStats()

    def arrive(self, barrier_id: int, core: int, team_size: int,
               now: int) -> list[tuple[int, int]] | None:
        """Register ``core`` at the barrier.

        Returns None while the team is incomplete (the core spins).  When
        the last member arrives, returns ``[(core, release_cycle), ...]``
        for *every* member including the last, in arrival order: release
        propagates from the last arriver over the ring, so nearer cores
        wake sooner.

        Raises:
            SimulationError: if a core arrives twice in one generation.
        """
        if team_size < 1:
            raise SimulationError("barrier team size must be >= 1")
        if self._observer is not None:
            self._observer.on_barrier_arrive(barrier_id, core, team_size, now)
        arrived = self._barriers.get(barrier_id)
        if arrived is None:
            arrived = self._barriers[barrier_id] = {}
        if core in arrived:
            raise SimulationError(
                f"core {core} arrived twice at barrier {barrier_id}")
        arrived[core] = now
        if len(arrived) < team_size:
            return None

        # Last arriver: release everyone.
        self.stats.episodes += 1
        nodes, dist, hop_latency = self._core_nodes, self._dist, self._hop_latency
        last_node, num_nodes = nodes[core], len(dist)
        releases = []
        waited = 0
        for c, arrived_at in arrived.items():
            release = now + dist[(nodes[c] - last_node) % num_nodes] * hop_latency
            releases.append((c, release))
            waited += release - arrived_at
        self.stats.total_wait_cycles += waited
        if self._observer is not None:
            self._observer.on_barrier_release(barrier_id, releases, now)
        arrived.clear()
        return releases

    def any_waiting(self) -> bool:
        """True if any barrier has waiters (deadlock diagnosis)."""
        return any(self._barriers.values())
