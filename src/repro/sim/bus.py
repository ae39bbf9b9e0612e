"""Split-transaction, pipelined off-chip bus (Table 1).

The bus is the central contended resource of the paper's bandwidth study.
We model the split transaction as:

* a fixed ``bus_latency`` (40 cycles) covering arbitration and the address
  phase — pipelined, so it does not occupy the data bus;
* a data phase that *reserves* the data bus for
  :attr:`MachineConfig.bus_cycles_per_line` cycles (32 at baseline — "one
  cache line every 32 cycles at peak bandwidth").

Every data-phase cycle increments the busy-cycle counter, which is exactly
the ``BUS_DRDY_CLOCKS``-style counter BAT's training loop reads.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.sim.config import MachineConfig
from repro.sim.stats import busy_fraction


class ReservationTimeline:
    """First-fit reservation of a unit-capacity resource over time.

    The memory system resolves each access synchronously at issue time, so
    reservations arrive in *issue* order while their ready times can be
    reordered by upstream queueing (a request that waited in a busy DRAM
    bank is ready later than one issued after it that hit an idle bank).
    A monotone next-free clock would charge phantom stalls in that case;
    this timeline instead keeps the set of busy intervals and places each
    transfer in the earliest gap at or after its ready time.
    """

    __slots__ = ("_starts", "_ends", "_horizon", "_min_duration")

    def __init__(self, horizon: int = 1_000_000, min_duration: int = 1) -> None:
        """``min_duration`` is the shortest reservation that will ever be
        made.  A gap shorter than it can hold none of them, so it is
        closed as soon as it forms; a bus that only moves whole lines
        then stays one interval while it is saturated."""
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._horizon = horizon
        self._min_duration = min_duration

    def reserve(self, ready: int, duration: int) -> int:
        """Book ``duration`` cycles at the earliest start >= ``ready``."""
        starts, ends = self._starts, self._ends
        min_gap = self._min_duration
        if duration < min_gap:
            raise ValueError(f"reservation of {duration} cycles on a timeline "
                             f"built for {min_gap} or more")
        # At or past the end of the whole timeline: append, or extend the
        # last interval over a gap nothing fits in.
        if not ends or ready - ends[-1] >= min_gap:
            starts.append(ready)
            ends.append(ready + duration)
            return ready
        last = ends[-1]
        if ready >= last:
            ends[-1] = ready + duration
            return ready
        # Inside the last interval (the steady state of a bandwidth-bound
        # run): queue behind it.
        if starts[-1] <= ready:
            ends[-1] = last + duration
            return last

        # Drop intervals that ended long before any future request can
        # begin (ready times are bounded below by the advancing clock).
        # Merging keeps the list short, so only bother when it grows.
        if len(ends) > 8:
            cutoff = ready - self._horizon
            drop = bisect.bisect_right(ends, cutoff)
            if drop:
                del starts[:drop]
                del ends[:drop]

        start = ready
        idx = bisect.bisect_right(ends, start)
        while idx < len(starts):
            if start + duration <= starts[idx]:
                break  # fits in the gap before interval idx
            start = ends[idx]
            idx += 1
        end = start + duration
        # Merge with a neighbor when the gap left between them is too
        # short to hold any transfer: coalescing changes no outcome.
        merge_prev = idx > 0 and start - ends[idx - 1] < min_gap
        merge_next = idx < len(starts) and starts[idx] - end < min_gap
        if merge_prev and merge_next:
            ends[idx - 1] = ends[idx]
            del starts[idx]
            del ends[idx]
        elif merge_prev:
            ends[idx - 1] = end
        elif merge_next:
            starts[idx] = start
        else:
            starts.insert(idx, start)
            ends.insert(idx, end)
        return start



@dataclass(slots=True)
class BusStats:
    """Traffic and occupancy counters for the off-chip bus."""

    transfers: int = 0
    busy_cycles: int = 0
    total_wait_cycles: int = 0

    def utilization(self, elapsed_cycles: int) -> float:
        """Fraction of ``elapsed_cycles`` the data bus was occupied."""
        return busy_fraction(self.busy_cycles, elapsed_cycles)


class OffChipBus:
    """Reservation-based data bus shared by all L3 banks.

    Its state and its counters: the address phase is ``latency`` cycles,
    and a data phase books ``cycles_per_line`` cycles on the timeline.
    The memory port books its transfers itself; ``tests/spec_memsys.py``
    writes the same as ``t + bus.latency`` and ``data_phase(bus, ready)``.
    """

    __slots__ = ("latency", "cycles_per_line", "_timeline", "stats")

    def __init__(self, config: MachineConfig) -> None:
        self.latency = config.bus_latency
        self.cycles_per_line = config.bus_cycles_per_line
        self._timeline = ReservationTimeline(
            min_duration=self.cycles_per_line)
        self.stats = BusStats()

    @property
    def busy_cycles(self) -> int:
        """Cumulative data-bus-occupied cycles (the BAT counter)."""
        return self.stats.busy_cycles
