"""Unit tests for the gshare branch predictor."""

from __future__ import annotations

import pytest

from repro.sim.branch import GsharePredictor


def test_learns_always_taken_branch():
    p = GsharePredictor(1024)
    for _ in range(8):
        p.update(pc=0x400, taken=True)
    assert p.update(pc=0x400, taken=True) is True  # predicted taken


def test_learns_alternating_pattern_via_history():
    p = GsharePredictor(4096)
    # Warm up: alternating T/N at one PC. Gshare's history register lets
    # it separate the two phases into different table entries.
    outcomes = [i % 2 == 0 for i in range(400)]
    for t in outcomes:
        p.update(pc=0x1000, taken=t)
    correct = sum(p.update(pc=0x1000, taken=(i % 2 == 0)) for i in range(100))
    assert correct >= 95


def test_mispredictions_counted():
    p = GsharePredictor(1024)
    for _ in range(4):
        p.update(pc=0x40, taken=True)
    p.update(pc=0x40, taken=False)  # surprise
    assert p.stats.mispredictions >= 1
    assert p.stats.predictions == 5


def test_the_table_is_allocated_by_the_first_update():
    p = GsharePredictor(64)
    assert p._table is None
    assert p.update(pc=0x40, taken=True) is True  # weakly taken
    assert p._table is not None and len(p._table) == 64


def test_accuracy_with_no_branches_is_one():
    assert GsharePredictor(64).stats.accuracy == 1.0


def test_accuracy_tracks_ratio():
    p = GsharePredictor(1024)
    for _ in range(10):
        p.update(pc=0x8, taken=True)
    assert p.stats.accuracy > 0.7


def test_entries_must_be_power_of_two():
    with pytest.raises(ValueError):
        GsharePredictor(1000)
    with pytest.raises(ValueError):
        GsharePredictor(0)


def test_table_default_size_matches_4kb():
    from repro.sim.config import MachineConfig
    cfg = MachineConfig.asplos08_baseline()
    assert cfg.gshare_entries == 16384  # 4 KB of 2-bit counters


def test_counters_saturate():
    p = GsharePredictor(64)
    for _ in range(100):
        p.update(pc=0, taken=True)
    # One not-taken cannot flip a saturated counter to not-taken.
    p.update(pc=0, taken=False)
    assert p.update(pc=0, taken=True) is True  # still predicted taken
