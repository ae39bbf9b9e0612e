"""Set-associative cache with true-LRU replacement.

The cache stores per-line *payloads* (e.g. a MESI state for L2, a dirty bit
for L3) but no data values: workloads compute real values at the Python
level while the memory system models timing and coherence state only.

Sets are plain dicts keyed by line address.  Python dicts preserve
insertion order, so LRU is "delete + reinsert on touch" and the victim is
the first key — O(1) per operation without a linked list.

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
    """Hit/miss/eviction counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
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
        size_bytes: total capacity.
        assoc: ways per set.
        line_bytes: line size (power of two).
        name: label used in ``repr`` and stats dumps.

    The set count must be a power of two: a line's set is
    ``line & (num_sets - 1)``.

    Construction allocates no set: a set is allocated by its first fill
    (a run touches few of a 32-core machine's 10 240 private sets).
    """

    __slots__ = ("name", "assoc", "line_bytes", "num_sets", "_sets", "stats",
                 "_offset_bits", "_set_mask")

    def __init__(self, size_bytes: int, assoc: int, line_bytes: int = 64,
                 name: str = "cache") -> None:
        if line_bytes <= 0 or line_bytes & (line_bytes - 1):
            raise ValueError("line_bytes must be a positive power of two")
        num_lines = size_bytes // line_bytes
        if assoc < 1 or num_lines == 0 or num_lines % assoc:
            raise ValueError(
                f"{name}: {size_bytes} bytes / {line_bytes}B lines not divisible "
                f"into {assoc}-way sets")
        num_sets = num_lines // assoc
        if num_sets & (num_sets - 1):
            raise ValueError(f"{name}: {num_sets} sets is not a power of two")
        self.name = name
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.num_sets = num_sets
        self._sets: list[dict[int, Any]] = [UNFILLED] * num_sets
        self._offset_bits = line_bytes.bit_length() - 1
        self._set_mask = num_sets - 1
        self.stats = CacheStats()

    def line_of(self, addr: int) -> int:
        """Line address (byte address >> offset bits) containing ``addr``."""
        return addr >> self._offset_bits

    # -- core operations ------------------------------------------------------

    def lookup(self, line: int, touch: bool = True) -> Any | None:
        """Return the payload for ``line`` or None on miss.

        Counts a hit or miss; ``touch=True`` promotes the line to MRU.
        """
        s = self._sets[line & self._set_mask]
        stats = self.stats
        if line in s:
            stats.hits += 1
            if touch:
                payload = s.pop(line)
                s[line] = payload
                return payload
            return s[line]
        stats.misses += 1
        return None

    def peek(self, line: int) -> Any | None:
        """Payload for ``line`` without touching LRU or counting stats."""
        return self._sets[line & self._set_mask].get(line)

    def insert(self, line: int, payload: Any = True) -> tuple[int, Any] | None:
        """Install ``line``; return the evicted ``(line, payload)`` if any.

        If the line is already present its payload is replaced and promoted
        to MRU with no eviction.
        """
        index = line & self._set_mask
        s = self._sets[index]
        if line in s:
            del s[line]
            s[line] = payload
            return None
        if s is UNFILLED:
            s = self._sets[index] = {}
        victim = None
        if len(s) >= self.assoc:
            victim_line = next(iter(s))
            victim = (victim_line, s.pop(victim_line))
            self.stats.evictions += 1
        s[line] = payload
        return victim

    def update(self, line: int, payload: Any) -> bool:
        """Replace the payload of a resident line without LRU movement.

        Returns False when the line is not resident.
        """
        s = self._sets[line & self._set_mask]
        if line not in s:
            return False
        s[line] = payload
        return True

    def invalidate(self, line: int) -> Any | None:
        """Remove ``line``; return its payload, or None if absent."""
        s = self._sets[line & self._set_mask]
        payload = s.pop(line, None)
        if payload is not None:
            self.stats.invalidations += 1
        return payload

    # -- introspection -----------------------------------------------------------

    def __contains__(self, line: int) -> bool:
        return line in self._sets[line & self._set_mask]

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def clear(self) -> None:
        """Drop all lines (does not reset stats)."""
        self._sets[:] = [UNFILLED] * self.num_sets

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SetAssocCache {self.name}: {self.num_sets}x{self.assoc} "
                f"lines={len(self)} hits={self.stats.hits} misses={self.stats.misses}>")
