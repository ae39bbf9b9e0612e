"""Unit tests for the core model and the assembled machine."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.errors import ConfigError, DeadlockError
from repro.isa.ops import (
    BarrierWait,
    Compute,
    CounterKind,
    Load,
    Lock,
    ReadCounter,
    Store,
    Unlock,
)
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine, _place_nodes
from repro.sim.observer import FanOut, SimObserver
from repro.trace import TraceRecorder


def run_one(machine: Machine, ops):
    def factory(tid, team):
        yield from ops
    return machine.run_serial(factory)


def test_compute_retires_two_per_cycle(small_machine: Machine):
    region = run_one(small_machine, [Compute(100)])
    assert region.cycles == 50


def test_odd_instruction_count_rounds_up(small_machine: Machine):
    region = run_one(small_machine, [Compute(101)])
    assert region.cycles == 51


def test_zero_instruction_compute_is_free(small_machine: Machine):
    region = run_one(small_machine, [Compute(0), Compute(10)])
    assert region.cycles == 5


def test_load_blocks_until_memory_returns(small_machine: Machine):
    region = run_one(small_machine, [Load(1 << 20)])
    assert region.cycles > 100  # cold DRAM miss


def test_retired_instructions_counted(small_machine: Machine):
    run_one(small_machine, [Compute(10), Load(1 << 20), Store(1 << 21)])
    assert small_machine.cores[0].retired_instructions == 12


def test_read_counter_returns_value_into_program(small_machine: Machine):
    seen = []

    def factory(tid, team):
        yield Compute(20)
        t = yield ReadCounter(CounterKind.CYCLES)
        seen.append(t)

    small_machine.run_serial(factory)
    assert seen and seen[0] >= 10


def test_lock_serializes_critical_sections(machine: Machine):
    order = []

    def factory(tid, team):
        yield Lock(0)
        order.append(("enter", tid))
        yield Compute(1000)
        order.append(("exit", tid))
        yield Unlock(0)

    machine.run_parallel([factory] * 4)
    # Critical sections must not interleave.
    for i in range(0, len(order), 2):
        assert order[i][0] == "enter"
        assert order[i + 1][0] == "exit"
        assert order[i][1] == order[i + 1][1]


def test_barrier_synchronizes_team(machine: Machine):
    phases = []

    def factory(tid, team):
        yield Compute(100 * (tid + 1))
        phases.append(("before", tid))
        yield BarrierWait(0)
        phases.append(("after", tid))

    machine.run_parallel([factory] * 4)
    before = [i for i, p in enumerate(phases) if p[0] == "before"]
    after = [i for i, p in enumerate(phases) if p[0] == "after"]
    assert max(before) < min(after)


def test_deadlock_detected_when_lock_never_released(machine: Machine):
    def holder(tid, team):
        yield Lock(0)
        # never unlocks, never finishes the other thread's acquire

    def waiter(tid, team):
        yield Compute(100)
        yield Lock(0)
        yield Unlock(0)

    with pytest.raises(DeadlockError):
        machine.run_parallel([holder, waiter])


def test_deadlock_detected_on_partial_barrier(machine: Machine):
    def arriver(tid, team):
        if tid == 0:
            yield BarrierWait(0)
        else:
            yield Compute(10)

    with pytest.raises(DeadlockError):
        machine.run_parallel([arriver, arriver])


def test_too_many_threads_rejected(small_machine: Machine):
    cores = small_machine.config.num_cores

    def factory(tid, team):
        yield Compute(2)

    with pytest.raises(ConfigError):
        small_machine.run_parallel([factory] * (cores + 1))


def test_empty_team_rejected(small_machine: Machine):
    with pytest.raises(ConfigError):
        small_machine.run_parallel([])


def test_spawn_overhead_charged_to_workers(machine: Machine):
    starts = {}

    def factory(tid, team):
        t = yield ReadCounter(CounterKind.CYCLES)
        starts[tid] = t

    machine.run_parallel([factory] * 2)
    spawn = machine.config.thread_spawn_cycles
    assert starts[1] - starts[0] >= spawn - 2


def test_serial_region_skips_spawn_overhead(machine: Machine):
    region = machine.run_serial(lambda tid, team: iter([Compute(2)]))
    assert region.cycles == 1


def test_time_persists_across_regions(small_machine: Machine):
    r1 = run_one(small_machine, [Compute(100)])
    r2 = run_one(small_machine, [Compute(100)])
    assert r2.start_cycle >= r1.end_cycle


def test_caches_stay_warm_across_regions(small_machine: Machine):
    run_one(small_machine, [Load(1 << 20)])
    misses_before = small_machine.memsys.l3.misses
    run_one(small_machine, [Load(1 << 20)])
    assert small_machine.memsys.l3.misses == misses_before


def test_power_counts_active_cores_only(machine: Machine):
    def factory(tid, team):
        yield Compute(100_000)

    before = machine.snapshot()
    machine.run_parallel([factory] * 8, spawn_overhead=False)
    result = machine.result_since(before)
    assert result.power == pytest.approx(8.0, rel=0.01)


def test_spinning_cores_count_as_active(machine: Machine):
    def factory(tid, team):
        yield Lock(0)
        yield Compute(50_000)
        yield Unlock(0)

    before = machine.snapshot()
    machine.run_parallel([factory] * 8, spawn_overhead=False)
    result = machine.result_since(before)
    # All 8 cores are active (one working, seven spinning) nearly all run.
    assert result.power > 7.0
    assert result.spin_core_cycles > 0


def test_node_placement_is_disjoint_and_complete():
    cores, banks = _place_nodes(32, 8)
    assert len(cores) == 32 and len(banks) == 8
    assert set(cores) | set(banks) == set(range(40))
    assert not set(cores) & set(banks)


def test_node_placement_spreads_banks():
    _cores, banks = _place_nodes(32, 8)
    gaps = [b - a for a, b in zip(banks, banks[1:])]
    assert max(gaps) <= 6  # roughly every 5 slots


def test_observer_slot_is_none_the_observer_or_a_fan_out(
        baseline_config: MachineConfig):
    machine = Machine(baseline_config)
    assert machine.observer is None and machine.events.sampler is None
    assert not {"sanitizer", "trace"} & {
        f.name for f in fields(MachineConfig)}
    one = SimObserver()
    assert Machine(baseline_config, observers=[one]).observer is one
    recorder = TraceRecorder()
    machine = Machine(baseline_config, observers=[one, recorder])
    assert isinstance(machine.observer, FanOut)
    assert machine.observer.observers == (one, recorder)
    assert machine.events.sampler is recorder  # installed by on_attach
    # An observer that is not the tracer installs no sampler.
    assert Machine(baseline_config, observers=[one]).events.sampler is None
