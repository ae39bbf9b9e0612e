"""Unit tests for the full memory hierarchy timing and coherence.

Every access goes through a core's memory port, the walk the cores run.
"""

from __future__ import annotations

import pytest

from repro.sim.cache import UNFILLED
from repro.sim.coherence import MesiState
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from tests import spec_memsys
from tests.spec_memsys import clear, home, peek
from tests.test_property_memsys import state_of


@pytest.fixture
def m() -> Machine:
    return Machine(MachineConfig.asplos08_baseline())


ADDR = 1 << 20
LINE = ADDR // 64  # the line of ADDR, with 64-byte lines


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
    assert peek(m.memsys.l2s[0], LINE) is MesiState.SHARED
    assert peek(m.memsys.l2s[1], LINE) is MesiState.SHARED


def test_store_to_shared_line_upgrades_and_invalidates(m: Machine):
    t = access(m, 0, ADDR, False, 0)
    t = access(m, 1, ADDR, False, t)
    t = access(m, 0, ADDR, True, t)
    assert peek(m.memsys.l2s[0], LINE) is MesiState.MODIFIED
    assert peek(m.memsys.l2s[1], LINE) is None
    assert m.memsys.directory.stats.upgrades + m.memsys.directory.stats.getm >= 1


def test_store_hit_in_exclusive_is_silent_upgrade(m: Machine):
    t = access(m, 0, ADDR, False, 0)  # E
    upgrades_before = m.memsys.directory.stats.upgrades
    t2 = access(m, 0, ADDR, True, t)
    assert t2 - t == m.config.l1_latency
    assert m.memsys.directory.stats.upgrades == upgrades_before
    assert peek(m.memsys.l2s[0], LINE) is MesiState.MODIFIED


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
    bank = home(m.memsys, LINE)[0]
    assert peek(bank.cache, LINE) is True


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


#: Who holds the line when its L3 copy is evicted: ``(core, is_write)``
#: accesses, in order, that leave it held that way.
HOLDERS = {
    "E-owner": [(0, False)],
    "S-sharers-on-two-cores": [(0, False), (1, False)],
    "M-dirty-owner": [(0, True)],
}


@pytest.mark.parametrize("holders", HOLDERS.values(), ids=HOLDERS)
def test_l3_inclusive_recall_invalidates_private_copies(holders):
    """Evicting a line from its home bank recalls every private copy.

    Each holder shape takes its own leg of the port (a clean owner, the
    sharers' ``Directory.on_recall`` leg, a dirty owner's write-back),
    and the port must agree with the specification on each."""
    cfg = MachineConfig.small(num_cores=4)
    m, reference = Machine(cfg), Machine(cfg)
    ports = [(m.memsys.make_port(core), spec_memsys.port(reference.memsys, core))
             for core in range(cfg.num_cores)]
    t = 0

    def both(core: int, addr: int, is_write: bool) -> None:
        nonlocal t
        port, spec = ports[core]
        done = port(addr, is_write, t)
        assert done == spec(addr, is_write, t)
        t = done

    for core, is_write in holders:
        both(core, ADDR, is_write)
    bank = home(m.memsys, LINE)[0]
    # Thrash that L3 bank set from another core until the line is recalled.
    sets = bank.cache.num_sets
    k = 1
    while peek(bank.cache, LINE) is not None and k < 4096:
        conflict = ADDR + k * sets * cfg.l3_banks * 64
        if home(m.memsys, conflict // 64)[0] is bank:
            both(3, conflict, False)
        k += 1
    assert peek(bank.cache, LINE) is None
    for core, _ in holders:
        assert peek(m.memsys.l2s[core], LINE) is None, "inclusion violated"
    assert state_of(m) == state_of(reference)


@pytest.mark.xfail(strict=True, reason=(
    "model defect, pinned not fixed: an L3 bank indexes its sets with "
    "line & l3_set_mask, but every line of bank b already has "
    "line & l3_bank_mask == b, so 256 of each bank's 2048 sets are reachable "
    "and the 8 MB L3 holds 1 MB; the fix, a shift past the bank bits in the "
    "address map, moves cycles and belongs to a declared model-fix PR that "
    "re-records the golden pins"))
def test_every_l3_set_is_reachable(m: Machine):
    amap, banks = m.memsys.addrmap, m.memsys.l3.banks
    reached: dict[int, set[int]] = {index: set() for index in range(len(banks))}
    for line in range(1 << 16):
        index = line & amap.l3_bank_mask  # the home bank
        reached[index].add(line & amap.l3_set_mask)
    assert all(len(sets) == bank.cache.num_sets
               for bank, sets in zip(banks, reached.values()))


def test_port_refills_a_cleared_l1_from_a_warm_l2(m: Machine):
    """No run reaches the port's L1 fill with the set unallocated (an L2
    hit means the line's L1 set was filled along with it); ``clear``
    does, and the fill must allocate the set, not write the sentinel."""
    port, l1 = m.memsys.make_port(0), m.memsys.l1s[0]
    t = 0
    for k in range(4):
        t = port(ADDR + k * 64, False, t)
    clear(l1)
    l2_hits = m.memsys.l2s[0].stats.hits
    for k in range(4):
        done = port(ADDR + k * 64, False, t)
        assert done - t == m.config.l1_latency + m.config.l2_latency
        t = done
    assert m.memsys.l2s[0].stats.hits == l2_hits + 4
    assert len(l1) == 4 and len(UNFILLED) == 0
