"""Set-associative cache with true-LRU replacement.

The cache stores per-line *payloads* (e.g. a MESI state for L2, a dirty bit
for L3) but no data values: workloads compute real values at the Python
level while the memory system models timing and coherence state only.

Sets are plain dicts keyed by line address.  Python dicts preserve
insertion order, so LRU is "delete + reinsert on touch" and the victim is
the first key — O(1) per operation without a linked list.

The class is that state and its counters.  The memory port
(``MemorySystem.make_port``) reads and writes ``_sets`` in place; the
operations the memory walk's specification is written in — lookup, peek,
insert, update, clear — are functions over the same state in
``tests/spec_memsys.py``.  The one method the port calls is
:meth:`SetAssocCache.invalidate`, in the recall of an L3 victim that
cores hold in S.

A set is allocated by its first fill.  Until then its slot holds
:data:`UNFILLED`, one shared empty dict that nothing ever writes: every
read (``in``, ``get``, ``len``, ``pop(line, None)``) behaves as on a
set's own empty dict, so only the code that inserts has to know — it
stores the new dict *into* the ``_sets`` list, which a memory port has
bound and which is therefore never rebound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


#: Stands in for every set that has not been filled yet.  Never written.
UNFILLED: dict[int, Any] = {}


@dataclass(slots=True)
class CacheStats:
    """Hit/miss/invalidation counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Miss fraction (0.0 when the cache was never accessed)."""
        if not self.accesses:
            return 0.0
        return self.misses / self.accesses


class SetAssocCache:
    """A set-associative, true-LRU cache directory (tags + payloads).

    Args:
        set_mask: a line's set is ``line & set_mask``, a mask of the
            address map (:mod:`repro.sim.addrmap`).
        assoc: ways per set.
        name: label, such as ``l2.3`` or ``l3.bank5``.

    Construction allocates no set: a set is allocated by its first fill
    (a run touches few of a 32-core machine's 10 240 private sets).
    """

    __slots__ = ("name", "assoc", "num_sets", "set_mask", "_sets", "stats")

    def __init__(self, set_mask: int, assoc: int, name: str = "cache") -> None:
        self.name = name
        self.assoc = assoc
        self.num_sets = set_mask + 1
        self.set_mask = set_mask
        self._sets: list[dict[int, Any]] = [UNFILLED] * self.num_sets
        self.stats = CacheStats()

    def invalidate(self, line: int) -> Any | None:
        """Remove ``line``; return its payload, or None if absent."""
        s = self._sets[line & self.set_mask]
        payload = s.pop(line, None)
        if payload is not None:
            self.stats.invalidations += 1
        return payload

    @property
    def evictions(self) -> int:
        """Lines evicted: a line enters only on a counted miss and leaves
        by an eviction or a counted invalidation, unless still here."""
        stats = self.stats
        return stats.misses - stats.invalidations - len(self)

    def __len__(self) -> int:
        """Resident lines (``repro run --report`` prints them)."""
        return sum(len(s) for s in self._sets)
