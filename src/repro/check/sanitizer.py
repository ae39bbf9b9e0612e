"""The thread sanitizer: one observer dispatching machine events to the
three analyses (races, lock order, discipline).

A :class:`ThreadSanitizer` is a :class:`~repro.sim.observer.SimObserver`
plug-in: hand one to ``Machine(config, observers=[...])`` and call
:meth:`~ThreadSanitizer.finish` afterwards.  It owns the cross-analysis
state every check needs:

* the per-agent stack of held locks (from the lock manager's
  acquired/released events, which are authoritative);
* the barrier epoch — bumped at region boundaries and full-team barrier
  releases, the happens-before fences of this runtime;
* per-agent access ordinals, so race findings can name their sites.
"""

from __future__ import annotations

from repro.check.discipline import DisciplineLinter
from repro.check.findings import AccessSite, Finding
from repro.check.lockorder import LockOrderAnalyzer
from repro.check.lockset import LocksetRaceDetector
from repro.isa.ops import CounterKind
from repro.sim.observer import SimObserver

_EMPTY: frozenset[int] = frozenset()
_NO_LOCKS: list[int] = []


class ThreadSanitizer(SimObserver):
    """Dispatches simulator events to the three analyses.

    A pure observer: it never schedules events or changes timing, so
    cycle counts are identical with it attached or not.  Every analysis
    always runs (why: the :mod:`repro.check` docstring).
    """

    def __init__(self) -> None:
        self.races = LocksetRaceDetector()
        self.lock_order = LockOrderAnalyzer()
        self.discipline = DisciplineLinter()
        #: Held-lock stack per agent, in acquisition order.
        self._held: dict[int, list[int]] = {}
        #: Frozen copy of each held stack, for cheap lockset intersection.
        self._held_sets: dict[int, frozenset[int]] = {}
        #: Barrier epoch: accesses in different epochs cannot race.
        self._epoch = 0
        #: Per-agent access ordinal (1-based), for site reporting.
        self._access_no: dict[int, int] = {}

    # -- shared state helpers ----------------------------------------------

    # -- region lifecycle -----------------------------------------------------

    def on_region_begin(self, num_threads: int, now: int) -> None:
        self._epoch += 1
        self.discipline.on_region_begin()

    def on_region_end(self, now: int) -> None:
        self._epoch += 1

    def on_thread_exit(self, core: int, agent: int, now: int) -> None:
        held = self._held.get(agent, _NO_LOCKS)
        self.discipline.on_thread_exit(agent, held, now)
        if held:
            self._held[agent] = []
            self._held_sets[agent] = _EMPTY

    # -- memory ----------------------------------------------------------------

    def on_access(self, agent: int, addr: int, is_store: bool,
                  now: int) -> None:
        ordinal = self._access_no.get(agent, 0) + 1
        self._access_no[agent] = ordinal
        site = AccessSite(agent=agent, index=ordinal,
                          kind="store" if is_store else "load", cycle=now)
        self.races.on_access(agent, addr, is_store, self._epoch,
                             self._held_sets.get(agent, _EMPTY), site)

    # -- locks --------------------------------------------------------------------

    def on_lock_request(self, lock_id: int, agent: int, now: int) -> None:
        held = self._held.get(agent, _NO_LOCKS)
        if held:
            self.lock_order.on_lock_request(lock_id, agent, held, now)
        self.discipline.on_lock_request(lock_id, agent, held, now)

    def on_lock_acquired(self, lock_id: int, agent: int,
                         grant: int) -> None:
        stack = self._held.setdefault(agent, [])
        stack.append(lock_id)
        self._held_sets[agent] = frozenset(stack)

    def on_unlock_request(self, lock_id: int, agent: int, now: int) -> None:
        self.discipline.on_unlock_request(
            lock_id, agent, self._held.get(agent, _NO_LOCKS), now)

    def on_lock_released(self, lock_id: int, agent: int, now: int) -> None:
        stack = self._held.get(agent)
        if stack and lock_id in stack:
            stack.remove(lock_id)
            self._held_sets[agent] = frozenset(stack)

    # -- barriers ----------------------------------------------------------------

    def on_barrier_arrive(self, barrier_id: int, agent: int,
                          team_size: int, now: int) -> None:
        self.discipline.on_barrier_arrive(barrier_id, agent, team_size, now)

    def on_barrier_release(self, barrier_id: int,
                           releases: list[tuple[int, int]],
                           now: int) -> None:
        # Every participant's pre-barrier accesses have been observed and
        # all post-barrier ones come later: a happens-before fence.
        self._epoch += 1
        self.discipline.on_barrier_release(
            barrier_id, [agent for agent, _when in releases], now)

    # -- counters ----------------------------------------------------------------

    def on_read_counter(self, agent: int, kind: CounterKind,
                        now: int) -> None:
        self.discipline.on_read_counter(
            agent, kind, self._held.get(agent, _NO_LOCKS), now)

    # -- results ------------------------------------------------------------------

    def finish(self) -> tuple[Finding, ...]:
        """All findings, chronological per analysis: races and discipline
        as observed, then lock-order cycles (computed from the final
        graph), then incomplete-barrier diagnoses."""
        self.discipline.finish()
        return (*self.races.findings, *self.lock_order.finish(),
                *self.discipline.findings)

    @property
    def dropped(self) -> int:
        """Findings suppressed by the per-analysis ``MAX_FINDINGS`` cap."""
        return (self.races.dropped + self.lock_order.dropped
                + self.discipline.dropped)
