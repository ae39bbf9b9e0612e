"""Unit tests for RunResult/Snapshot and the power model."""

from __future__ import annotations

import pytest

from repro.power import ActiveCorePowerModel
from repro.sim.stats import RunResult, Snapshot


def make_result(cycles=1000, busy=4000, spin=500, bus=250, retired=2000):
    return RunResult(
        cycles=cycles, busy_core_cycles=busy, spin_core_cycles=spin,
        bus_busy_cycles=bus, bus_transfers=bus // 32, l3_misses=10,
        l3_accesses=100, retired_instructions=retired, lock_acquisitions=3)


def test_power_is_average_active_cores():
    assert make_result().power == pytest.approx(4.0)


def test_power_zero_for_empty_interval():
    assert make_result(cycles=0, busy=0).power == 0.0


def test_bus_utilization_capped():
    r = make_result(cycles=100, bus=250)
    assert r.bus_utilization == 1.0


def test_ipc():
    assert make_result().ipc == pytest.approx(2.0)


def test_energy_is_active_core_cycles():
    assert make_result().energy == 4000.0


def test_results_add():
    a, b = make_result(), make_result(cycles=500, busy=1000)
    c = a + b
    assert c.cycles == 1500
    assert c.busy_core_cycles == 5000
    assert c.power == pytest.approx(5000 / 1500)


def test_between_subtracts_snapshots():
    s0 = Snapshot(cycles=100, busy_core_cycles=200, spin_core_cycles=0,
                  bus_busy_cycles=10, bus_transfers=1, l3_misses=2,
                  l3_accesses=20, retired_instructions=100,
                  lock_acquisitions=0)
    s1 = Snapshot(cycles=300, busy_core_cycles=700, spin_core_cycles=50,
                  bus_busy_cycles=74, bus_transfers=3, l3_misses=6,
                  l3_accesses=60, retired_instructions=500,
                  lock_acquisitions=4)
    r = RunResult.between(s0, s1)
    assert r.cycles == 200
    assert r.busy_core_cycles == 500
    assert r.bus_busy_cycles == 64
    assert r.lock_acquisitions == 4


def test_power_model_matches_paper_definition():
    model = ActiveCorePowerModel(num_cores=32, idle_fraction=0.0)
    assert model.power(make_result()) == pytest.approx(4.0)


def test_power_model_idle_floor():
    model = ActiveCorePowerModel(num_cores=32, idle_fraction=0.5)
    # 4 active + 0.5 * 28 idle = 18.
    assert model.power(make_result()) == pytest.approx(18.0)


def test_power_model_energy():
    model = ActiveCorePowerModel(num_cores=8)
    r = make_result()
    assert model.energy(r) == pytest.approx(model.power(r) * r.cycles)


def test_power_model_validation():
    with pytest.raises(ValueError):
        ActiveCorePowerModel(0)
    with pytest.raises(ValueError):
        ActiveCorePowerModel(8, idle_fraction=1.5)
