"""Unit tests for the performance-counter file."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.isa.ops import Compute, CounterKind, Load, ReadCounter
from repro.sim.machine import Machine


def test_cycle_counter_tracks_clock(small_machine: Machine):
    values = []

    def factory(tid, team):
        t0 = yield ReadCounter(CounterKind.CYCLES)
        values.append(t0)
        yield Compute(200)
        t1 = yield ReadCounter(CounterKind.CYCLES)
        values.append(t1)

    small_machine.run_serial(factory)
    assert values[1] - values[0] >= 100  # 200 instr at 2-wide


def test_bus_busy_counter_counts_transfers(small_machine: Machine):
    values = []

    def factory(tid, team):
        b0 = yield ReadCounter(CounterKind.BUS_BUSY_CYCLES)
        for i in range(4):
            yield Load((1 << 21) + i * 64)
        b1 = yield ReadCounter(CounterKind.BUS_BUSY_CYCLES)
        values.append(b1 - b0)

    small_machine.run_serial(factory)
    per_line = small_machine.config.bus_cycles_per_line
    assert values[0] == 4 * per_line


def test_retired_counter_is_per_core(small_machine: Machine):
    values = {}

    def factory(tid, team):
        yield Compute(100 * (tid + 1))
        r = yield ReadCounter(CounterKind.RETIRED_OPS)
        values[tid] = r

    small_machine.run_parallel([factory] * 2, spawn_overhead=False)
    assert values[0] >= 100
    assert values[1] >= 200
    assert values[1] > values[0]


def test_l3_miss_counter(small_machine: Machine):
    values = []

    def factory(tid, team):
        m0 = yield ReadCounter(CounterKind.L3_MISSES)
        yield Load(1 << 21)
        yield Load(1 << 21)  # second access hits
        m1 = yield ReadCounter(CounterKind.L3_MISSES)
        values.append(m1 - m0)

    small_machine.run_serial(factory)
    assert values[0] == 1


def test_unknown_counter_raises(small_machine: Machine):
    with pytest.raises(SimulationError):
        small_machine.counters.read("bogus", 0)  # type: ignore[arg-type]


def test_counter_read_costs_one_cycle(small_machine: Machine):
    def factory(tid, team):
        _ = yield ReadCounter(CounterKind.CYCLES)
        _ = yield ReadCounter(CounterKind.CYCLES)

    region = small_machine.run_serial(factory)
    assert region.cycles <= 4
