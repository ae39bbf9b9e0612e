"""Sense-reversing barriers for thread teams.

A barrier is identified by an integer id and is reusable: the generation
counter flips each time the whole team arrives, so the same id can be used
in a loop (the common OpenMP pattern the paper's kernels rely on —
PageMine's per-page barrier, for example).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(slots=True)
class _BarrierState:
    generation: int = 0
    arrived: list = field(default_factory=list)  # (core, arrival_time)


class BarrierManager:
    """All barriers of the machine."""

    def __init__(self, config: "MachineConfig", ring: "Ring",
                 core_nodes: list[int],
                 observer: "SimObserver | None" = None) -> None:
        self._config = config
        self._ring = ring
        self._core_nodes = core_nodes
        self._barriers: dict[int, _BarrierState] = {}
        #: Observer (repro.sim.observer); never affects release timing.
        self._observer = observer
        self.stats = BarrierStats()

    def arrive(self, barrier_id: int, core: int, team_size: int,
               now: int) -> list[tuple[int, int]] | None:
        """Register ``core`` at the barrier.

        Returns None while the team is incomplete (the core spins).  When
        the last member arrives, returns ``[(core, release_cycle), ...]``
        for *every* member including the last: release propagates from the
        last arriver over the ring, so nearer cores wake sooner.

        Raises:
            SimulationError: if a core arrives twice in one generation.
        """
        if team_size < 1:
            raise SimulationError("barrier team size must be >= 1")
        if self._observer is not None:
            self._observer.on_barrier_arrive(barrier_id, core, team_size, now)
        st = self._barriers.get(barrier_id)
        if st is None:
            st = _BarrierState()
            self._barriers[barrier_id] = st
        if any(c == core for c, _t in st.arrived):
            raise SimulationError(
                f"core {core} arrived twice at barrier {barrier_id}")
        st.arrived.append((core, now))
        if len(st.arrived) < team_size:
            return None

        # Last arriver: release everyone.
        self.stats.episodes += 1
        last_node = self._core_nodes[core]
        releases = []
        for c, arrived_at in st.arrived:
            hops = self._ring.hops(last_node, self._core_nodes[c])
            release = now + hops * self._config.ring_hop_latency
            releases.append((c, release))
            self.stats.total_wait_cycles += release - arrived_at
        if self._observer is not None:
            self._observer.on_barrier_release(barrier_id, releases, now)
        st.arrived = []
        st.generation += 1
        return releases

    def pending(self, barrier_id: int) -> int:
        """Cores currently waiting at ``barrier_id``."""
        st = self._barriers.get(barrier_id)
        return len(st.arrived) if st else 0

    def any_waiting(self) -> bool:
        """True if any barrier has waiters (deadlock diagnosis)."""
        return any(st.arrived for st in self._barriers.values())
