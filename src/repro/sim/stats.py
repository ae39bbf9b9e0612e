"""Snapshots and run-level results.

The paper reports two quantities per run: execution time (cycles) and
power (average number of active cores).  :class:`Snapshot` captures the
machine counters at an instant; :class:`RunResult` is the difference of
two snapshots plus derived metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


def busy_fraction(busy_cycles: int, elapsed_cycles: int) -> float:
    """Occupancy of a unit-capacity resource, clamped to [0, 1].

    The single definition of "utilization" shared by
    :attr:`RunResult.bus_utilization` and
    :meth:`repro.sim.bus.BusStats.utilization`.  Zero or negative elapsed
    time yields 0.0 (an empty interval has no occupancy); the clamp
    absorbs transfers that straddle the interval boundary.
    """
    if elapsed_cycles <= 0:
        return 0.0
    return min(1.0, busy_cycles / elapsed_cycles)


@dataclass(frozen=True, slots=True)
class Snapshot:
    """Machine counters at one instant of simulated time."""

    cycles: int
    busy_core_cycles: int
    spin_core_cycles: int
    bus_busy_cycles: int
    bus_transfers: int
    l3_misses: int
    l3_accesses: int
    retired_instructions: int
    lock_acquisitions: int


#: A snapshot's counters in order; a result holds the same fields.
_COUNTERS = tuple(f.name for f in fields(Snapshot))


@dataclass(frozen=True, slots=True)
class RunResult:
    """Metrics over an interval of simulated execution.

    ``power`` follows the paper's Section 3.1 definition: the number of
    active cores in a cycle, averaged over the interval.  A core spinning
    on a lock or barrier counts as active.
    """

    cycles: int
    busy_core_cycles: int
    spin_core_cycles: int
    bus_busy_cycles: int
    bus_transfers: int
    l3_misses: int
    l3_accesses: int
    retired_instructions: int
    lock_acquisitions: int

    @staticmethod
    def between(start: Snapshot, end: Snapshot) -> "RunResult":
        """Result for the interval between two snapshots."""
        return RunResult(*(getattr(end, name) - getattr(start, name)
                           for name in _COUNTERS))

    @property
    def power(self) -> float:
        """Average active cores over the interval (the paper's power)."""
        if self.cycles <= 0:
            return 0.0
        return self.busy_core_cycles / self.cycles

    @property
    def bus_utilization(self) -> float:
        """Fraction of the interval the off-chip data bus was busy."""
        return busy_fraction(self.bus_busy_cycles, self.cycles)

    @property
    def energy(self) -> float:
        """Power x time proxy: active-core-cycles (paper: power savings
        translate to energy savings when execution time is unchanged)."""
        return float(self.busy_core_cycles)

    @property
    def ipc(self) -> float:
        """Chip-wide retired instructions per cycle."""
        if self.cycles <= 0:
            return 0.0
        return self.retired_instructions / self.cycles

    def to_dict(self) -> dict:
        """All counters plus derived metrics, JSON-ready.

        The one encoding of a run result: the CLI's ``--json`` output
        and the jobs cache both use it, so cached and fresh payloads
        stay field-for-field identical.
        """
        return {**{name: getattr(self, name) for name in _COUNTERS},
                "power": self.power,
                "bus_utilization": self.bus_utilization,
                "ipc": self.ipc,
                "energy": self.energy}

    def __add__(self, other: "RunResult") -> "RunResult":
        """Concatenate two disjoint intervals (times and counts add)."""
        return RunResult(*(getattr(self, name) + getattr(other, name)
                           for name in _COUNTERS))
