"""Performance-monitoring counters readable by simulated programs.

The paper's techniques deliberately rely only on counters that shipping
processors already expose: the cycle counter (``rdtsc``) for SAT and a
bus-busy-cycles counter (``BUS_DRDY_CLOCKS`` on Core2, ``BUS_DATA_CYCLE``
on Itanium2) for BAT.  :class:`CounterFile` is the simulator's equivalent
register file, sampled through the :class:`~repro.isa.ops.ReadCounter` op.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.isa.ops import CounterKind
from repro.sim.engine import EventQueue
from repro.sim.memsys import MemorySystem


class CounterFile:
    """Reads machine counters on behalf of a core."""

    __slots__ = ("_events", "_memsys", "_retired")

    def __init__(self, events: EventQueue, memsys: MemorySystem) -> None:
        self._events = events
        self._memsys = memsys
        #: Retired instructions per core: the one such counter.  Each
        #: core's step bumps its entry in place.
        self._retired = [0] * memsys.config.num_cores

    def read(self, kind: CounterKind, core: int) -> int:
        """Current value of counter ``kind`` as seen by ``core``."""
        if kind is CounterKind.CYCLES:
            return self._events.now
        if kind is CounterKind.BUS_BUSY_CYCLES:
            return self._memsys.bus.busy_cycles
        if kind is CounterKind.RETIRED_OPS:
            return self._retired[core]
        if kind is CounterKind.L3_MISSES:
            return self._memsys.l3.misses
        raise SimulationError(f"unknown counter {kind!r}")
