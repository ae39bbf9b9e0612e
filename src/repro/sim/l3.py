"""Shared, banked L3 cache (Table 1: 8 MB, 8-way, 8 banks, 20 cycles).

Banks are line-interleaved.  Each bank is a reserved resource: it accepts
a new request every :data:`BANK_OCCUPANCY` cycles (the bank is
pipelined, so occupancy is shorter than the 20-cycle access latency).
"""

from __future__ import annotations

from repro.sim.cache import SetAssocCache
from repro.sim.config import MachineConfig

#: Cycles between two requests a bank accepts.
BANK_OCCUPANCY = 4


class L3Bank:
    """One bank of the shared L3: a tag store plus a reservation clock."""

    __slots__ = ("index", "cache", "latency", "occupancy", "_free")

    def __init__(self, index: int, config: MachineConfig) -> None:
        self.index = index
        self.cache = SetAssocCache(
            size_bytes=config.l3_bytes // config.l3_banks,
            assoc=config.l3_assoc,
            line_bytes=config.line_bytes,
            name=f"l3.bank{index}",
        )
        self.latency = config.l3_latency
        self.occupancy = BANK_OCCUPANCY
        self._free = 0

    def start_access(self, now: int) -> int:
        """Reserve the bank; return the cycle the access actually starts."""
        start = max(now, self._free)
        self._free = start + self.occupancy
        return start


class SharedL3:
    """The full L3: bank selection plus aggregate statistics."""

    __slots__ = ("banks", "_bank_mask")

    def __init__(self, config: MachineConfig) -> None:
        self.banks = [L3Bank(i, config) for i in range(config.l3_banks)]
        self._bank_mask = config.l3_banks - 1

    def bank_of(self, line: int) -> L3Bank:
        """Home bank of a line address (line-interleaved)."""
        return self.banks[line & self._bank_mask]

    @property
    def hits(self) -> int:
        return sum(b.cache.stats.hits for b in self.banks)

    @property
    def misses(self) -> int:
        return sum(b.cache.stats.misses for b in self.banks)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def miss_rate(self) -> float:
        """Aggregate L3 miss fraction (0.0 when never accessed)."""
        total = self.accesses
        if not total:
            return 0.0
        return self.misses / total
