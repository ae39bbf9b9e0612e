"""Shared, banked L3 cache (Table 1: 8 MB, 8-way, 8 banks, 20 cycles).

Banks are line-interleaved.  Each bank is a reserved resource: it accepts
a new request every :data:`BANK_OCCUPANCY` cycles (the bank is
pipelined, so occupancy is shorter than the 20-cycle access latency).
"""

from __future__ import annotations

from repro.sim.addrmap import AddressMap
from repro.sim.cache import SetAssocCache
from repro.sim.config import MachineConfig

#: Cycles between two requests a bank accepts.
BANK_OCCUPANCY = 4


class L3Bank:
    """One bank of the shared L3: a tag store plus a reservation clock.

    ``_free`` is the first cycle the bank accepts a request; an access
    starts at ``max(arrival, _free)`` and moves it ``occupancy`` cycles
    on.  The memory port does that in place, and ``tests/spec_memsys.py``
    spells it ``start_access(bank, arrival)``.
    """

    __slots__ = ("cache", "latency", "occupancy", "_free")

    def __init__(self, index: int, config: MachineConfig,
                 addrmap: AddressMap) -> None:
        self.cache = SetAssocCache(addrmap.l3_set_mask, config.l3_assoc,
                                   name=f"l3.bank{index}")
        self.latency = config.l3_latency
        self.occupancy = BANK_OCCUPANCY
        self._free = 0


class SharedL3:
    """The full L3: its banks plus aggregate statistics.

    Banks are line-interleaved: a line's home is
    ``banks[line & addrmap.l3_bank_mask]``.
    """

    __slots__ = ("banks",)

    def __init__(self, config: MachineConfig, addrmap: AddressMap) -> None:
        self.banks = [L3Bank(i, config, addrmap) for i in range(config.l3_banks)]

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
