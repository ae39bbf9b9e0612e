"""Unit tests for the banked DRAM with open-page row buffers."""

from __future__ import annotations

import pytest

from repro.sim.addrmap import AddressMap
from repro.sim.config import MachineConfig
from repro.sim.dram import Dram
from tests.spec_memsys import dram_access


def table1_dram() -> Dram:
    return Dram(cfg(), AddressMap.of(cfg()))


@pytest.fixture
def dram() -> Dram:
    return table1_dram()


def cfg() -> MachineConfig:
    return MachineConfig.asplos08_baseline()


def test_first_access_is_closed_row(dram: Dram):
    done = dram_access(dram, line=0, now=0)
    assert done == cfg().dram_closed_row_latency
    assert dram.stats.row_closed == 1


def test_second_access_same_granule_is_row_hit(dram: Dram):
    t1 = dram_access(dram, line=0, now=0)
    t2 = dram_access(dram, line=1, now=t1)
    assert t2 - t1 == cfg().dram_row_hit_latency
    assert dram.stats.row_hits == 1


def test_different_row_same_bank_conflicts(dram: Dram):
    # Find two lines mapping to the same bank but different rows.
    bank0 = dram.bank_of(0)
    granule = dram.addrmap.dram_granule
    other = granule * next(row for row in range(1, 1 << 16)
                           if dram.bank_of(row) == bank0)
    t1 = dram_access(dram, 0, now=0)
    t2 = dram_access(dram, other, now=t1)
    assert t2 - t1 == cfg().dram_row_conflict_latency
    assert dram.stats.row_conflicts == 1


def test_bank_reservation_serializes(dram: Dram):
    t1 = dram_access(dram, 0, now=0)
    # Request to the same bank issued at time 0 must queue behind it.
    t2 = dram_access(dram, 1, now=0)
    assert t2 == t1 + cfg().dram_row_hit_latency
    assert dram.stats.total_queue_cycles == t1


def test_different_banks_proceed_in_parallel(dram: Dram):
    line_a = 0
    line_b = dram.addrmap.dram_granule * next(
        row for row in range(1, 1 << 12) if dram.bank_of(row) != dram.bank_of(0))
    t1 = dram_access(dram, line_a, now=0)
    t2 = dram_access(dram, line_b, now=0)
    assert t2 <= t1 + 1 or t2 == cfg().dram_closed_row_latency


def test_sequential_stream_mostly_row_hits(dram: Dram):
    now = 0
    for line in range(512):
        now = dram_access(dram, line, now)
    assert dram.stats.row_hit_rate > 0.9


def test_granule_interleaving_spreads_banks(dram: Dram):
    banks = {dram.bank_of(row) for row in range(256)}
    assert len(banks) == cfg().dram_banks


def test_lines_within_granule_share_bank(dram: Dram):
    """A granule's lines are one row of one bank: issued together, each
    access queues behind the one before."""
    granule = cfg().dram_granule_lines
    done = [dram_access(dram, line, now=0) for line in range(granule)]
    assert all(a < b for a, b in zip(done, done[1:]))
    assert dram.stats.row_hits == granule - 1


def test_bank_memo_is_bounded_and_changes_no_bank(dram: Dram, monkeypatch):
    rows = list(range(64))
    expected = [dram.bank_of(row) for row in rows]
    monkeypatch.setattr("repro.sim.dram._MEMO_GRANULES", 8)
    small = table1_dram()
    assert [small.bank_of(row) for row in rows * 2] == expected * 2
    assert len(small._granule_bank) <= 8


def test_row_hit_rate_zero_when_unused(dram: Dram):
    assert dram.stats.row_hit_rate == 0.0


def test_equal_paced_streams_do_not_phase_lock():
    """Regression: stride-aligned streams must not camp in shared banks.

    With 7 equally-paced streams at a power-of-two-ish stride, a weak
    bank hash phase-locks pairs into the same bank and the row-hit rate
    collapses; the avalanche hash keeps collisions transient.
    """
    d = table1_dram()
    n_lines = 32000
    starts = [int(t * n_lines / 7) for t in range(7)]
    now = 0
    for k in range(0, 2000):
        for s in starts:
            dram_access(d, s + k, now)
        now += 220
    assert d.stats.row_hit_rate > 0.75
