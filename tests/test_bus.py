"""Unit tests for the split-transaction off-chip bus."""

from __future__ import annotations

import pytest

from repro.sim.bus import OffChipBus, ReservationTimeline
from repro.sim.config import MachineConfig
from tests.spec_memsys import data_phase


@pytest.fixture
def bus() -> OffChipBus:
    return OffChipBus(MachineConfig.asplos08_baseline())


def test_baseline_line_occupancy_is_32_cycles():
    cfg = MachineConfig.asplos08_baseline()
    assert cfg.bus_cycles_per_line == 32


def test_data_phase_occupies_bus(bus: OffChipBus):
    done = data_phase(bus, 0)
    assert done == 32
    assert bus.stats.busy_cycles == 32
    assert bus.stats.transfers == 1


def test_back_to_back_transfers_serialize(bus: OffChipBus):
    t1 = data_phase(bus, 0)
    t2 = data_phase(bus, 0)
    assert t2 == t1 + 32
    assert bus.stats.total_wait_cycles == 32


def test_spaced_transfers_do_not_wait(bus: OffChipBus):
    data_phase(bus, 0)
    done = data_phase(bus, 100)
    assert done == 132
    assert bus.stats.total_wait_cycles == 0


def test_out_of_order_ready_times_fill_gaps(bus: OffChipBus):
    """A transfer ready early must slot into an idle gap, not queue
    behind a reservation made earlier for a later ready time."""
    data_phase(bus, 1000)  # reserves [1000, 1032)
    done = data_phase(bus, 0)  # ready long before: uses the idle bus now
    assert done == 32
    assert bus.stats.total_wait_cycles == 0


def test_gap_too_small_is_skipped():
    tl = ReservationTimeline()
    tl.reserve(0, 32)      # [0, 32)
    tl.reserve(40, 32)     # [40, 72)
    start = tl.reserve(0, 32)  # gap [32, 40) too small -> goes after 72
    assert start == 72


def test_exact_fit_gap_is_used():
    tl = ReservationTimeline()
    tl.reserve(0, 32)      # [0, 32)
    tl.reserve(64, 32)     # [64, 96)
    start = tl.reserve(0, 32)  # gap [32, 64) fits exactly
    assert start == 32


def test_min_duration_closes_gaps_nothing_fits_in():
    tl = ReservationTimeline(min_duration=32)
    tl.reserve(0, 32)       # [0, 32)
    tl.reserve(40, 32)      # gap [32, 40) holds no transfer: one interval
    assert len(tl._starts) == 1
    assert tl.reserve(0, 32) == 72
    tl.reserve(200, 32)     # a gap of 96 stays open ...
    assert len(tl._starts) == 2
    assert tl.reserve(100, 32) == 104   # ... and is filled first-fit
    with pytest.raises(ValueError):
        tl.reserve(0, 16)


def test_timeline_reservations_never_overlap():
    tl = ReservationTimeline()
    intervals = []
    readies = [0, 100, 3, 50, 50, 0, 200, 7, 7, 7]
    for r in readies:
        s = tl.reserve(r, 32)
        assert s >= r
        intervals.append((s, s + 32))
    intervals.sort()
    for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
        assert e1 <= s2


def test_utilization_is_busy_over_elapsed(bus: OffChipBus):
    data_phase(bus, 0)
    data_phase(bus, 0)
    assert bus.stats.utilization(128) == pytest.approx(0.5)
    assert bus.stats.utilization(0) == 0.0


def test_utilization_caps_at_one(bus: OffChipBus):
    data_phase(bus, 0)
    assert bus.stats.utilization(16) == 1.0


def test_bandwidth_scaling_changes_occupancy():
    half = MachineConfig.asplos08_baseline().with_bandwidth(0.5)
    double = MachineConfig.asplos08_baseline().with_bandwidth(2.0)
    assert OffChipBus(half).cycles_per_line == 64
    assert OffChipBus(double).cycles_per_line == 16


def test_data_phase_books_its_slot_on_the_timeline(bus: OffChipBus):
    data_phase(bus, 10)
    data_phase(bus, 20)  # queues behind the first: one interval
    assert (bus._timeline._starts, bus._timeline._ends) == ([10], [74])
