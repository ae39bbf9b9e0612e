"""Unit tests for the full memory hierarchy timing and coherence.

Every access goes through a core's memory port, the walk the cores run.
"""

from __future__ import annotations

import pytest

from repro.sim.cache import UNFILLED
from repro.sim.coherence import MesiState
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine


@pytest.fixture
def m() -> Machine:
    return Machine(MachineConfig.asplos08_baseline())


ADDR = 1 << 20


def access(m: Machine, core: int, addr: int, is_write: bool, now: int) -> int:
    """One load or store through ``core``'s memory port."""
    return m.memsys.make_port(core)(addr, is_write, now)


def test_cold_load_goes_to_dram(m: Machine):
    done = access(m, 0, ADDR, False, 0)
    # Must include at least L1+L2+L3+bus latency+DRAM+transfer.
    assert done > 150
    assert m.memsys.l3.misses == 1
    assert m.memsys.bus.stats.transfers == 1
    assert m.memsys.dram.stats.accesses == 1


def test_l1_hit_costs_one_cycle(m: Machine):
    t1 = access(m, 0, ADDR, False, 0)
    t2 = access(m, 0, ADDR, False, t1)
    assert t2 - t1 == m.config.l1_latency


def test_l2_hit_after_l1_eviction(m: Machine):
    t = access(m, 0, ADDR, False, 0)
    # Evict the line from L1 by filling its set (L1 is 2-way, 64 sets).
    l1 = m.memsys.l1s[0]
    sets = l1.num_sets
    for k in range(1, 3):
        t = access(m, 0, ADDR + k * sets * 64, False, t)
    t2 = access(m, 0, ADDR, False, t)
    assert t2 - t == m.config.l1_latency + m.config.l2_latency


def test_second_core_load_is_cache_to_cache(m: Machine):
    t = access(m, 0, ADDR, False, 0)
    before = m.memsys.bus.stats.transfers
    t2 = access(m, 1, ADDR, False, t)
    assert m.memsys.bus.stats.transfers == before  # no new off-chip traffic
    assert m.memsys.directory.stats.cache_to_cache == 1
    assert t2 - t < 100  # on-chip transfer, far cheaper than DRAM


def test_store_then_remote_load_pulls_dirty_data(m: Machine):
    t = access(m, 0, ADDR, True, 0)
    t2 = access(m, 1, ADDR, False, t)
    assert m.memsys.directory.stats.cache_to_cache == 1
    # Both now share the line.
    line = m.memsys.line_of(ADDR)
    assert m.memsys.l2s[0].peek(line) is MesiState.SHARED
    assert m.memsys.l2s[1].peek(line) is MesiState.SHARED


def test_store_to_shared_line_upgrades_and_invalidates(m: Machine):
    t = access(m, 0, ADDR, False, 0)
    t = access(m, 1, ADDR, False, t)
    t = access(m, 0, ADDR, True, t)
    line = m.memsys.line_of(ADDR)
    assert m.memsys.l2s[0].peek(line) is MesiState.MODIFIED
    assert m.memsys.l2s[1].peek(line) is None
    assert m.memsys.directory.stats.upgrades + m.memsys.directory.stats.getm >= 1


def test_store_hit_in_exclusive_is_silent_upgrade(m: Machine):
    t = access(m, 0, ADDR, False, 0)  # E
    upgrades_before = m.memsys.directory.stats.upgrades
    t2 = access(m, 0, ADDR, True, t)
    assert t2 - t == m.config.l1_latency
    assert m.memsys.directory.stats.upgrades == upgrades_before
    line = m.memsys.line_of(ADDR)
    assert m.memsys.l2s[0].peek(line) is MesiState.MODIFIED


def test_write_ping_pong_counts_invalidations(m: Machine):
    t = 0
    for i in range(6):
        t = access(m, i % 2, ADDR, True, t)
    assert m.memsys.directory.stats.getm >= 5
    assert m.memsys.directory.stats.cache_to_cache >= 5


def test_dirty_l2_eviction_writes_back_to_l3(m: Machine):
    t = access(m, 0, ADDR, True, 0)
    # Evict by filling the L2 set (4-way, 256 sets).
    sets = m.memsys.l2s[0].num_sets
    for k in range(1, 6):
        t = access(m, 0, ADDR + k * sets * 64, False, t)
    assert m.memsys.stats.l2_writebacks >= 1
    # The L3 copy is now marked dirty.
    line = m.memsys.line_of(ADDR)
    bank = m.memsys.l3.bank_of(line)
    assert bank.cache.peek(line) is True


def test_loads_and_stores_counted(m: Machine):
    access(m, 0, ADDR, False, 0)
    access(m, 0, ADDR + 64, True, 500)
    assert m.memsys.stats.loads == 1
    assert m.memsys.stats.stores == 1


def test_addresses_in_same_line_share_one_fill(m: Machine):
    t = access(m, 0, ADDR, False, 0)
    t2 = access(m, 0, ADDR + 32, False, t)
    assert t2 - t == m.config.l1_latency
    assert m.memsys.l3.misses == 1


def test_l3_inclusive_recall_invalidates_private_copies():
    cfg = MachineConfig.small(num_cores=2)
    m = Machine(cfg)
    t = access(m, 0, ADDR, False, 0)
    line = m.memsys.line_of(ADDR)
    bank = m.memsys.l3.bank_of(line)
    # Thrash that L3 bank set until the line is recalled.
    sets = bank.cache.num_sets
    k = 1
    while bank.cache.peek(line) is not None and k < 4096:
        conflict = ADDR + k * sets * cfg.l3_banks * 64
        if m.memsys.l3.bank_of(m.memsys.line_of(conflict)) is bank:
            t = access(m, 1, conflict, False, t)
        k += 1
    assert bank.cache.peek(line) is None
    assert m.memsys.l2s[0].peek(line) is None, "inclusion violated"


@pytest.mark.xfail(strict=True, reason=(
    "model defect, pinned not fixed: an L3 bank indexes its sets with "
    "line & set_mask, but every line of bank b already has line & 7 == b, "
    "so 256 of each bank's 2048 sets are reachable and the 8 MB L3 holds "
    "1 MB; the fix, (line >> bank_bits) & set_mask, moves cycles and "
    "belongs to a declared model-fix PR that re-records the golden pins"))
def test_every_l3_set_is_reachable(m: Machine):
    reached: dict[int, set[int]] = {b.index: set() for b in m.memsys.l3.banks}
    for line in range(1 << 16):
        bank = m.memsys.l3.bank_of(line)
        reached[bank.index].add(line & bank.cache._set_mask)
    assert all(len(sets) == bank.cache.num_sets
               for bank, sets in zip(m.memsys.l3.banks, reached.values()))


def test_port_refills_a_cleared_l1_from_a_warm_l2(m: Machine):
    """No run reaches the port's L1 fill with the set unallocated (an L2
    hit means the line's L1 set was filled along with it); ``clear()``
    does, and the fill must allocate the set, not write the sentinel."""
    port, l1 = m.memsys.make_port(0), m.memsys.l1s[0]
    t = 0
    for k in range(4):
        t = port(ADDR + k * 64, False, t)
    l1.clear()
    l2_hits = m.memsys.l2s[0].stats.hits
    for k in range(4):
        done = port(ADDR + k * 64, False, t)
        assert done - t == m.config.l1_latency + m.config.l2_latency
        t = done
    assert m.memsys.l2s[0].stats.hits == l2_hits + 4
    assert len(l1) == 4 and len(UNFILLED) == 0
