"""Lock/barrier discipline lint: structural misuse of the sync primitives.

These checks need no interleaving luck at all — each one is a property
of a single observed event stream:

* ``unlock-of-unheld``   — an Unlock of a lock the agent does not hold
  (the lock manager aborts the run right after; the lint names the site).
* ``double-acquire``     — a Lock of a lock the agent already holds
  (the FIFO lock is not reentrant: this self-deadlocks).
* ``held-at-exit``       — a thread program ended while holding locks.
* ``inconsistent-barrier-team`` — arrivals at one barrier generation
  disagree about the team size, or consecutive generations within one
  region are crossed by different agent sets.
* ``incomplete-barrier`` — a barrier generation never completed (emitted
  at the end of an aborted run: the usual shape of a barrier deadlock).
* ``counter-in-critical-section`` — a performance counter read while a
  lock is held; the read is serializing, so it inflates the measured
  critical section and corrupts SAT's ``T_CS`` training samples.
"""

from __future__ import annotations

from repro.check.findings import DISCIPLINE, Finding, FindingLog
from repro.isa.ops import CounterKind


class _BarrierTrack:
    """Arrival bookkeeping for one barrier id within one region."""

    __slots__ = ("arrived", "team_sizes", "last_members", "flagged")

    def __init__(self) -> None:
        self.arrived: list[int] = []
        self.team_sizes: set[int] = set()
        self.last_members: frozenset[int] | None = None
        self.flagged = False


class DisciplineLinter(FindingLog):
    """Structural lock/barrier/counter checks."""

    def __init__(self) -> None:
        super().__init__()
        self._barriers: dict[int, _BarrierTrack] = {}
        self._counter_sites: set[tuple[str, int]] = set()

    def _record(self, kind: str, message: str, **details: object) -> None:
        self.add(Finding(
            analysis=DISCIPLINE, kind=kind, message=message, details=details))

    # -- locks -----------------------------------------------------------

    def on_lock_request(self, lock_id: int, agent: int,
                        held: list[int], now: int) -> None:
        if lock_id in held:
            self._record(
                "double-acquire",
                f"agent {agent} requested lock {lock_id} at cycle {now} "
                f"while already holding it (the FIFO lock is not "
                f"reentrant; this self-deadlocks)",
                lock=lock_id, agent=agent, cycle=now, held=list(held))

    def on_unlock_request(self, lock_id: int, agent: int,
                          held: list[int], now: int) -> None:
        if lock_id not in held:
            self._record(
                "unlock-of-unheld",
                f"agent {agent} released lock {lock_id} at cycle {now} "
                f"without holding it (held: {list(held) or 'none'})",
                lock=lock_id, agent=agent, cycle=now, held=list(held))

    def on_thread_exit(self, agent: int, held: list[int], now: int) -> None:
        if held:
            self._record(
                "held-at-exit",
                f"agent {agent} exited at cycle {now} still holding "
                f"lock(s) {list(held)}",
                agent=agent, cycle=now, held=list(held))

    # -- barriers ----------------------------------------------------------

    def on_region_begin(self) -> None:
        """Barrier membership is scoped to one parallel region."""
        self._barriers.clear()

    def on_barrier_arrive(self, barrier_id: int, agent: int,
                          team_size: int, now: int) -> None:
        track = self._barriers.get(barrier_id)
        if track is None:
            track = self._barriers[barrier_id] = _BarrierTrack()
        track.arrived.append(agent)
        track.team_sizes.add(team_size)
        if len(track.team_sizes) > 1 and not track.flagged:
            track.flagged = True
            self._record(
                "inconsistent-barrier-team",
                f"barrier {barrier_id}: arrivals disagree about the team "
                f"size ({sorted(track.team_sizes)}) within one generation",
                barrier=barrier_id, team_sizes=sorted(track.team_sizes),
                cycle=now)

    def on_barrier_release(self, barrier_id: int, agents: list[int],
                           now: int) -> None:
        track = self._barriers.get(barrier_id)
        if track is None:  # release without tracked arrivals: ignore
            return
        members = frozenset(agents)
        if (track.last_members is not None
                and members != track.last_members and not track.flagged):
            track.flagged = True
            self._record(
                "inconsistent-barrier-team",
                f"barrier {barrier_id}: generation crossed by agents "
                f"{sorted(members)} but the previous generation by "
                f"{sorted(track.last_members)}",
                barrier=barrier_id, members=sorted(members),
                previous=sorted(track.last_members), cycle=now)
        track.last_members = members
        track.arrived.clear()
        track.team_sizes.clear()

    # -- counters ------------------------------------------------------------

    def on_read_counter(self, agent: int, kind: CounterKind,
                        held: list[int], now: int) -> None:
        if not held:
            return
        site = (kind.value, held[-1])
        if site in self._counter_sites:
            return  # one finding per (counter, innermost lock) site
        self._counter_sites.add(site)
        self._record(
            "counter-in-critical-section",
            f"agent {agent} read counter {kind.value!r} at cycle {now} "
            f"inside a critical section (holding {list(held)}); the "
            f"serializing read inflates measured T_CS and corrupts SAT "
            f"training",
            agent=agent, counter=kind.value, held=list(held), cycle=now)

    # -- end of run ------------------------------------------------------------

    def finish(self) -> None:
        """Flag barrier generations that never completed (deadlock shape)."""
        for barrier_id, track in self._barriers.items():
            if track.arrived:
                self._record(
                    "incomplete-barrier",
                    f"barrier {barrier_id}: generation never completed; "
                    f"only agents {sorted(set(track.arrived))} arrived",
                    barrier=barrier_id,
                    arrived=sorted(set(track.arrived)))
                track.arrived.clear()  # keep finish() idempotent
