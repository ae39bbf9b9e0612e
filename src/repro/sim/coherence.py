"""Distributed directory-based MESI coherence (Table 1).

The directory is co-located with the L3 home bank of each line.  A
directory entry exists only while at least one private L2 holds the line;
it records either a set of sharers (line in S in each) or a single owner
(line in M or E in that core's L2).

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
from typing import cast


class MesiState(enum.Enum):
    """State of a line in a private L2 cache."""

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    # INVALID is represented by absence from the cache.


#: ``sharers`` of every owner-form entry: most lines only ever have one
#: holder, and their entries then allocate no set at all.  Frozen, and
#: never written: the transitions add to and discard from the sharers of
#: ownerless entries only, which hold a set of their own.
_NO_SHARERS = cast("set[int]", frozenset())


@dataclass(slots=True)
class DirectoryEntry:
    """Directory bookkeeping for one line with private copies.

    ``owner`` is set when exactly one core holds the line in M or E;
    ``sharers`` is a set of its own when one or more cores hold it in S.
    The two are mutually exclusive.
    """

    owner: int | None = None
    owner_dirty: bool = False  # owner's copy is M (vs E)
    sharers: set[int] = _NO_SHARERS

    def holders(self) -> set[int]:
        """All cores with a valid private copy."""
        if self.owner is not None:
            return {self.owner}
        return set(self.sharers)


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
    """Chip-wide directory state (sharded by home bank only logically)."""

    __slots__ = ("_entries", "stats")

    def __init__(self) -> None:
        self._entries: dict[int, DirectoryEntry] = {}
        self.stats = CoherenceStats()

    def entry(self, line: int) -> DirectoryEntry | None:
        """The directory entry for ``line`` or None if uncached privately."""
        return self._entries.get(line)

    def holders(self, line: int) -> set[int]:
        e = self._entries.get(line)
        return e.holders() if e else set()

    # -- transitions -------------------------------------------------------

    def on_gets(self, line: int, requester: int) -> tuple[int | None, bool]:
        """Record a load miss by ``requester``.

        Returns ``(forward_from, was_dirty)``: the core that must forward
        the line cache-to-cache (None when data comes from L3/memory) and
        whether that owner's copy was dirty (needs an L3 writeback).
        After the call the requester is a holder: sole holder → E is
        represented as owner with ``owner_dirty=False``; otherwise S.
        """
        self.stats.gets += 1
        e = self._entries.get(line)
        if e is None:
            # No private copies: requester gets the line in E.
            self._entries[line] = DirectoryEntry(owner=requester, owner_dirty=False)
            return None, False
        if e.owner is not None and e.owner != requester:
            src = e.owner
            dirty = e.owner_dirty
            self.stats.cache_to_cache += 1
            if dirty:
                self.stats.writebacks_to_l3 += 1
            # Owner downgrades to S; both are now sharers.
            e.sharers = {src, requester}
            e.owner = None
            e.owner_dirty = False
            return src, dirty
        if e.owner == requester:
            return None, False  # already owner (shouldn't miss, but harmless)
        e.sharers.add(requester)
        return None, False

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
        if e is not None:
            if e.owner is not None and e.owner != requester:
                forward_from = e.owner
                was_dirty = e.owner_dirty
                invalidated = {e.owner}
                self.stats.cache_to_cache += 1
            else:
                invalidated = {s for s in e.sharers if s != requester}
            self.stats.invalidations_sent += len(invalidated)
        self._entries[line] = DirectoryEntry(owner=requester, owner_dirty=True)
        return forward_from, was_dirty, invalidated

    def on_upgrade(self, line: int, requester: int) -> set[int]:
        """Record an S→M upgrade; returns the sharers to invalidate."""
        self.stats.upgrades += 1
        e = self._entries.get(line)
        victims: set[int] = set()
        if e is not None:
            victims = {s for s in e.sharers if s != requester}
            self.stats.invalidations_sent += len(victims)
        self._entries[line] = DirectoryEntry(owner=requester, owner_dirty=True)
        return victims

    def on_evict(self, line: int, core: int, state: MesiState) -> bool:
        """Record an L2 eviction.  Returns True if dirty data goes to L3."""
        e = self._entries.get(line)
        dirty = False
        if e is None:
            return False
        if e.owner == core:
            dirty = e.owner_dirty
            if dirty:
                self.stats.writebacks_to_l3 += 1
            del self._entries[line]
        elif e.owner is None:
            e.sharers.discard(core)
            if not e.sharers:
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
        holders = e.holders()
        self.stats.invalidations_sent += len(holders)
        dirty = e.owner is not None and e.owner_dirty
        if dirty:
            self.stats.writebacks_to_l3 += 1
        return holders, dirty

    def mark_dirty(self, line: int, core: int) -> None:
        """Note that ``core`` (the owner) dirtied its E copy (E→M)."""
        e = self._entries.get(line)
        if e is not None and e.owner == core:
            e.owner_dirty = True

    def __len__(self) -> int:
        return len(self._entries)
