"""Banked DRAM with open-page row buffers (Table 1).

32 banks, line-interleaved then row-interleaved addressing.  Each bank is a
reserved resource: a request arriving while the bank is busy queues behind
it (FIFO by arrival, matching the global issue order of the event engine).
The open-page policy keeps the last-accessed row latched in the row buffer:

* row hit      — CAS only              (fast)
* row conflict — precharge + activate + CAS (slow)
* closed bank  — activate + CAS         (intermediate)

A line's row is its granule, ``line // granule``: each granule occupies
its own stretch of a DRAM row, so a stream pays one activation per
granule visit and row-hits on the rest (a single sequential stream sees
a ~94 % row-hit rate).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.addrmap import AddressMap
from repro.sim.config import MachineConfig


#: Most granules the bank memo holds before it starts over (64 MB of
#: lines at the default granule): it must not grow with the footprint.
_MEMO_GRANULES = 1 << 16


@dataclass(slots=True)
class DramStats:
    """Row-buffer outcome counters across all banks."""

    row_hits: int = 0
    row_conflicts: int = 0
    row_closed: int = 0
    total_queue_cycles: int = 0

    @property
    def accesses(self) -> int:
        """Every access has exactly one row-buffer outcome."""
        return self.row_hits + self.row_conflicts + self.row_closed

    @property
    def row_hit_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return self.row_hits / self.accesses


class Dram:
    """Reservation-based model of a multi-bank DRAM.

    State only, apart from the bank hash: per bank the cycle it is free
    and its open row.  The memory port serves its accesses on that
    state itself; ``tests/spec_memsys.py`` writes one as
    ``dram_access(dram, line, now)``.
    """

    __slots__ = ("addrmap", "_granule_bank", "_bank_free", "_open_row",
                 "_hit_lat", "_conflict_lat", "_closed_lat", "_open_page",
                 "stats")

    def __init__(self, config: MachineConfig, addrmap: AddressMap) -> None:
        self.addrmap = addrmap
        #: Bank of every granule seen so far (the hash below, memoised).
        self._granule_bank: dict[int, int] = {}
        self._bank_free = [0] * config.dram_banks
        self._open_row: list[int | None] = [None] * config.dram_banks
        self._hit_lat = config.dram_row_hit_latency
        self._conflict_lat = config.dram_row_conflict_latency
        self._closed_lat = config.dram_closed_row_latency
        self._open_page = config.dram_open_page
        self.stats = DramStats()

    def bank_of(self, row: int) -> int:
        """Bank index for a DRAM row, ``line // addrmap.dram_granule``.

        Consecutive lines stay in one bank for a granule (default 16
        lines = 1 KB); the bank for each granule is chosen by a
        multiplicative hash of the granule index (bank permutation
        hashing, as in Rau-style pseudo-random interleaving).  The hash
        is immune to the power-of-two chunk strides that make threads of
        a statically-partitioned loop camp in each other's banks in
        lockstep — with it, concurrent streams collide only transiently.
        """
        bank = self._granule_bank.get(row)
        if bank is None:
            if len(self._granule_bank) >= _MEMO_GRANULES:
                self._granule_bank.clear()
            # Full-avalanche integer mix (xor-shift/multiply): unlike a
            # plain multiplicative hash, collisions between two streams at
            # a fixed granule offset are independent events, so
            # equally-paced threads cannot phase-lock into a shared bank.
            g = row
            g = ((g ^ (g >> 16)) * 0x45D9F3B) & 0xFFFFFFFF
            g = ((g ^ (g >> 16)) * 0x45D9F3B) & 0xFFFFFFFF
            bank = self._granule_bank[row] = (
                (g ^ (g >> 16)) & self.addrmap.dram_bank_mask)
        return bank
