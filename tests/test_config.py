"""Unit tests for MachineConfig (Table 1) validation and derivations."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.sim.config import MachineConfig


def test_baseline_matches_table1():
    c = MachineConfig.asplos08_baseline()
    assert c.num_cores == 32
    assert c.issue_width == 2
    assert c.l1_bytes == 8 * 1024
    assert c.l2_bytes == 64 * 1024
    assert c.l2_assoc == 4
    assert c.l3_bytes == 8 * 1024 * 1024
    assert c.l3_assoc == 8
    assert c.l3_banks == 8
    assert c.l3_latency == 20
    assert c.line_bytes == 64
    assert c.cpu_bus_ratio == 4
    assert c.bus_latency == 40
    assert c.dram_banks == 32


def test_peak_bandwidth_one_line_per_32_cycles():
    c = MachineConfig.asplos08_baseline()
    assert c.bus_cycles_per_line == 32


def test_config_is_hashable_and_comparable():
    a = MachineConfig.asplos08_baseline()
    b = MachineConfig.asplos08_baseline()
    assert a == b
    assert hash(a) == hash(b)
    assert a != replace(a, num_cores=16)


def test_with_bandwidth_half_and_double():
    base = MachineConfig.asplos08_baseline()
    assert base.with_bandwidth(0.5).bus_cycles_per_line == 64
    assert base.with_bandwidth(2.0).bus_cycles_per_line == 16


def test_with_bandwidth_rejects_nonpositive():
    with pytest.raises(ConfigError):
        MachineConfig.asplos08_baseline().with_bandwidth(0)


def test_with_bandwidth_clamps_ratio_at_one():
    cfg = MachineConfig.asplos08_baseline().with_bandwidth(100.0)
    assert cfg.cpu_bus_ratio == 1


def test_with_cores():
    """``--cores`` / ``machine.cores``: Table 1 with one field changed."""
    assert MachineConfig.baseline_with(cores=8) == replace(
        MachineConfig.asplos08_baseline(), num_cores=8)


def test_invalid_core_count_rejected():
    with pytest.raises(ConfigError):
        MachineConfig(num_cores=0)


def test_invalid_line_bytes_rejected():
    with pytest.raises(ConfigError):
        MachineConfig(line_bytes=48)


def test_cache_size_must_divide_into_sets():
    with pytest.raises(ConfigError):
        MachineConfig(l2_bytes=64 * 1024 + 64, l2_assoc=4)


@pytest.mark.parametrize("overrides", [
    {"l1_assoc": 0},
    {"l3_assoc": 0},
    {"l3_bytes": 8 * 2**20 + 512},  # 16 385 lines a bank: not 8-way sets
    {"l3_bytes": 8 * 2**20 + 64},  # not eight banks of whole lines
    {"l1_bytes": 3 * 2 * 64},  # 3 sets
    {"l2_bytes": 48 * 1024},  # 192 sets
    {"l3_bytes": 6 * 2**20},  # 1 536 sets a bank
    {"ring_link_occupancy": -1},
    {"ring_hop_latency": -1},
    {"dram_granule_lines": 0},  # the first DRAM access divided by zero
    {"dram_row_bytes": 0},  # a row of no lines: every granule is too big
    {"dram_granule_lines": -4},  # a negative row index per line
    {"dram_granule_lines": 128},  # two rows: was clamped to 64, a second key
    # A negative delay completed an access before it started, or (spawn)
    # scheduled an event in the past at the first run.
    {"l1_latency": -1},
    {"l2_latency": -6},
    {"l3_latency": -1},
    {"bus_latency": -50},
    {"dram_row_hit_latency": -100},
    {"dram_row_conflict_latency": -1},
    {"dram_closed_row_latency": -1},
    {"lock_handoff_base": -1},
    {"thread_spawn_cycles": -300},
    {"thread_join_cycles": -1},
])
def test_cache_and_ring_geometry_rejected_at_construction(overrides):
    """Each of these used to validate and then fail inside ``Machine()``,
    or to raise ZeroDivisionError; the memory port indexes every cache
    with ``line & (sets - 1)``, so a set count must be a power of two,
    and a line's DRAM row is ``line // granule`` within one row."""
    with pytest.raises(ConfigError):
        MachineConfig(**overrides)


def test_banks_must_be_power_of_two():
    with pytest.raises(ConfigError):
        MachineConfig(l3_banks=6)
    with pytest.raises(ConfigError):
        MachineConfig(dram_banks=12)


def test_small_config_is_valid():
    c = MachineConfig.small()
    assert c.num_cores == 8
    assert c.l3_bytes < MachineConfig.asplos08_baseline().l3_bytes
