"""FIFO lock manager: the simulator's critical-section machinery.

Locks serialize critical sections exactly as the paper's model assumes:
one holder at a time, waiters granted in arrival order.  Handoff between
cores costs ring-distance-dependent cycles (the lock line migrates between
private caches), so the *effective* critical-section length grows slightly
with physical distance — one of the second-order effects the analytical
model ignores and the simulator captures.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - break the sim <-> runtime cycle
    from repro.sim.config import MachineConfig
    from repro.sim.observer import SimObserver
    from repro.sim.ring import Ring


@dataclass(slots=True)
class LockStats:
    """Aggregate contention counters across all locks."""

    acquisitions: int = 0
    contended_acquisitions: int = 0
    total_wait_cycles: int = 0
    total_hold_cycles: int = 0


@dataclass(slots=True)
class _LockState:
    holder: int | None = None
    last_holder: int | None = None
    acquired_at: int = 0
    waiters: deque = field(default_factory=deque)  # (core, enqueue_time)


class LockManager:
    """All locks of the machine, granted in FIFO order."""

    def __init__(self, config: "MachineConfig", ring: "Ring",
                 core_nodes: list[int],
                 observer: "SimObserver | None" = None) -> None:
        self._lifo = config.lock_grant_order == "lifo"
        self._handoff_base = config.lock_handoff_base
        self._hop_latency = config.ring_hop_latency
        #: Core nodes come from the machine's own placement, so handoffs
        #: index the ring's distance list unchecked.
        self._dist = ring.dist
        self._core_nodes = core_nodes
        self._locks: dict[int, _LockState] = {}
        #: Observer (repro.sim.observer); never affects grant timing.
        self._observer = observer
        self.stats = LockStats()

    def _handoff_latency(self, from_core: int | None, to_core: int) -> int:
        """Cycles to move lock ownership between two cores."""
        if from_core is None or from_core == to_core:
            return 2  # lock line already resident in M
        nodes, dist = self._core_nodes, self._dist
        hops = dist[(nodes[to_core] - nodes[from_core]) % len(dist)]
        return self._handoff_base + 2 * hops * self._hop_latency

    def acquire(self, lock_id: int, core: int, now: int) -> int | None:
        """Try to take ``lock_id`` for ``core`` at cycle ``now``.

        Returns the cycle the lock is held from, or None if the core must
        wait (it will be granted later via :meth:`release`).
        """
        st = self._locks.get(lock_id)
        if st is None:
            st = self._locks[lock_id] = _LockState()
        if st.holder is None and not st.waiters:
            grant = now + self._handoff_latency(st.last_holder, core)
            st.holder = core
            st.acquired_at = grant
            self.stats.acquisitions += 1
            if self._observer is not None:
                self._observer.on_lock_acquired(lock_id, core, grant)
            return grant
        st.waiters.append((core, now))
        self.stats.contended_acquisitions += 1
        if self._observer is not None:
            self._observer.on_lock_spin_begin(lock_id, core, now)
        return None

    def release(self, lock_id: int, core: int, now: int) -> tuple[int, int] | None:
        """Release ``lock_id``; hand it to the next waiter if any.

        Returns ``(next_core, grant_cycle)`` when a waiter takes over, or
        None when the lock goes free.

        Raises:
            SimulationError: if ``core`` does not hold the lock.
        """
        st = self._locks.get(lock_id)
        if st is None or st.holder != core:
            raise SimulationError(
                f"core {core} released lock {lock_id} it does not hold")
        self.stats.total_hold_cycles += now - st.acquired_at
        st.last_holder = core
        st.holder = None
        if self._observer is not None:
            self._observer.on_lock_released(lock_id, core, now)
        if not st.waiters:
            return None
        if self._lifo:
            next_core, enqueued = st.waiters.pop()
        else:
            next_core, enqueued = st.waiters.popleft()
        grant = now + self._handoff_latency(core, next_core)
        st.holder = next_core
        st.acquired_at = grant
        self.stats.acquisitions += 1
        self.stats.total_wait_cycles += grant - enqueued
        if self._observer is not None:
            self._observer.on_lock_acquired(lock_id, next_core, grant)
        return next_core, grant

    def holder(self, lock_id: int) -> int | None:
        """Core currently holding ``lock_id`` (None when free/unknown)."""
        st = self._locks.get(lock_id)
        return st.holder if st else None

    def waiters(self, lock_id: int) -> int:
        """Number of cores queued on ``lock_id``."""
        st = self._locks.get(lock_id)
        return len(st.waiters) if st else 0

    def any_held(self) -> bool:
        """True if any lock is held or has waiters (deadlock diagnosis)."""
        return any(st.holder is not None or st.waiters
                   for st in self._locks.values())
