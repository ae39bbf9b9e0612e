"""Distributed directory-based MESI coherence (Table 1).

The directory is co-located with the L3 home bank of each line.  A
directory entry exists only while at least one private L2 holds the line,
and it is a plain value: the tuple ``(owner, dirty)`` while exactly one
core holds the line in M (``dirty``) or E, or the set of sharers while
one or more cores hold it in S.  An owned entry is replaced, never
mutated, so a memory port can store and compare its own ``(core, False)``
and ``(core, True)`` without building anything.

The protocol implemented (states are those of the private L2 copies):

* ``GetS`` (load miss): owner in M/E → downgrade to S, cache-to-cache
  forward; otherwise data comes from L3/memory and the requester joins the
  sharer set in S (E if it becomes the sole holder).
* ``GetM`` (store miss): all sharers invalidated / owner invalidated with
  dirty data pulled back; requester installs in M.
* ``Upgrade`` (store hit in S): sharers other than the requester are
  invalidated; requester's copy moves S→M with no data transfer.
* ``PutM``/``PutS`` (L2 eviction): owner eviction writes dirty data back
  to L3; sharer evictions silently leave the sharer set (the directory is
  kept precise, which only removes needless invalidations).

Timing for the coherence messages themselves is charged by the caller
(:class:`repro.sim.memsys.MemorySystem`) using ring distances; this module
maintains the *state* and reports what traffic a transition requires.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class MesiState(enum.Enum):
    """State of a line in a private L2 cache."""

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    # INVALID is represented by absence from the cache.


#: A directory entry: ``(owner, dirty)`` for a line one core holds in M
#: or E, or the set of cores holding it in S.
Entry = tuple[int, bool] | set[int]


@dataclass(slots=True)
class CoherenceStats:
    """Protocol event counters."""

    gets: int = 0
    getm: int = 0
    upgrades: int = 0
    invalidations_sent: int = 0
    cache_to_cache: int = 0
    writebacks_to_l3: int = 0


class Directory:
    """Chip-wide directory state (sharded by home bank only logically).

    ``_entries`` maps each privately cached line to its entry.  The
    memory port reads it, and writes it in place on the legs where
    nobody else holds the line (a first fill, an E→M store, an owner's
    eviction); every other transition is an ``on_*`` call.
    ``tests/spec_memsys.py`` calls the transitions for every leg.
    """

    __slots__ = ("_entries", "stats")

    def __init__(self) -> None:
        self._entries: dict[int, Entry] = {}
        self.stats = CoherenceStats()

    # -- transitions -------------------------------------------------------

    def on_gets(self, line: int, requester: int) -> tuple[int | None, bool]:
        """Record a load miss by ``requester``.

        Returns ``(forward_from, was_dirty)``: the core that must forward
        the line cache-to-cache (None when data comes from L3/memory) and
        whether that owner's copy was dirty (needs an L3 writeback).
        After the call the requester is a holder: sole holder → E is
        represented as ``(requester, False)``; otherwise S.
        """
        self.stats.gets += 1
        e = self._entries.get(line)
        if e is None:
            # No private copies: requester gets the line in E.
            self._entries[line] = (requester, False)
            return None, False
        if type(e) is set:
            e.add(requester)
            return None, False
        owner, dirty = e
        if owner == requester:
            return None, False  # already owner (shouldn't miss, but harmless)
        self.stats.cache_to_cache += 1
        if dirty:
            self.stats.writebacks_to_l3 += 1
        # Owner downgrades to S; both are now sharers.
        self._entries[line] = {owner, requester}
        return owner, dirty

    def on_getm(self, line: int, requester: int) -> tuple[int | None, bool, set[int]]:
        """Record a store miss by ``requester``.

        Returns ``(forward_from, was_dirty, invalidated)``.  After the
        call the requester is the sole owner in M.
        """
        self.stats.getm += 1
        e = self._entries.get(line)
        forward_from: int | None = None
        was_dirty = False
        invalidated: set[int] = set()
        if type(e) is set:
            invalidated = {s for s in e if s != requester}
        elif e is not None and e[0] != requester:
            forward_from, was_dirty = e
            invalidated = {forward_from}
            self.stats.cache_to_cache += 1
        self.stats.invalidations_sent += len(invalidated)
        self._entries[line] = (requester, True)
        return forward_from, was_dirty, invalidated

    def on_upgrade(self, line: int, requester: int) -> set[int]:
        """Record an S→M upgrade; returns the sharers to invalidate."""
        self.stats.upgrades += 1
        e = self._entries.get(line)
        victims: set[int] = set()
        if type(e) is set:
            victims = {s for s in e if s != requester}
            self.stats.invalidations_sent += len(victims)
        self._entries[line] = (requester, True)
        return victims

    def on_evict(self, line: int, core: int, state: MesiState) -> bool:
        """Record an L2 eviction.  Returns True if dirty data goes to L3."""
        e = self._entries.get(line)
        if e is None:
            return False
        if type(e) is set:
            e.discard(core)
            if not e:
                del self._entries[line]
            return False
        owner, dirty = e
        if owner != core:
            return False
        if dirty:
            self.stats.writebacks_to_l3 += 1
        del self._entries[line]
        return dirty and state is MesiState.MODIFIED

    def on_recall(self, line: int) -> tuple[set[int], bool]:
        """Invalidate all private copies (inclusive-L3 eviction recall).

        Returns ``(holders, dirty)`` — who lost a copy and whether dirty
        data must be written back before the L3 line is dropped.
        """
        e = self._entries.pop(line, None)
        if e is None:
            return set(), False
        if type(e) is set:
            self.stats.invalidations_sent += len(e)
            return e, False
        owner, dirty = e
        self.stats.invalidations_sent += 1
        if dirty:
            self.stats.writebacks_to_l3 += 1
        return {owner}, dirty
