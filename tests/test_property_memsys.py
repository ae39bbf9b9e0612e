"""Property-based tests for memory-hierarchy invariants (hypothesis).

A random sequence of loads/stores from random cores, driven through the
per-core ports the cores themselves use, must preserve the structural
invariants of the hierarchy: inclusion (L1 subset of L2, L2 subset of
L3), directory precision (directory holders == cores whose L2 holds the
line), and monotone time.  A second family drives the same sequence
through the ports of one machine and through the specification's
``access()`` (``tests/spec_memsys.py``) on another, and requires the two
to agree on every completion cycle, every cache's contents in LRU order,
the directory, every counter and, on a ring with link occupancy, every
link's reservation.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.isa.ops import Compute, CounterKind, Load, Lock, ReadCounter, Store, Unlock
from repro.sim.addrmap import AddressMap
from repro.sim.coherence import MesiState
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.observer import SimObserver
from tests import spec_memsys
from tests.spec_memsys import holds, home, peek

# A compact address space so random ops collide in sets and lines.
ADDRS = st.integers(0, 255).map(lambda k: (1 << 20) + k * 64)
OPS = st.lists(
    st.tuples(st.integers(0, 3), ADDRS, st.booleans()),
    min_size=1, max_size=120)


def resident(cache) -> list[int]:
    """Every line ``cache`` holds."""
    return [line for lines in cache._sets for line in lines]


def holders(directory, line: int) -> set[int]:
    """The cores the directory says hold ``line``."""
    entry = directory._entries.get(line)
    if entry is None:
        return set()
    return {entry[0]} if type(entry) is tuple else set(entry)


def run_ops(ops) -> Machine:
    m = Machine(MachineConfig.small(num_cores=4))
    ports = [m.memsys.make_port(core) for core in range(4)]
    t = 0
    for core, addr, is_write in ops:
        t = ports[core](addr, is_write, t)
    return m


@given(ops=OPS)
@settings(deadline=None)
def test_l1_is_subset_of_l2(ops):
    m = run_ops(ops)
    for core in range(4):
        l2_lines = set(resident(m.memsys.l2s[core]))
        for line in resident(m.memsys.l1s[core]):
            assert line in l2_lines, "L1/L2 inclusion violated"


@given(ops=OPS)
@settings(deadline=None)
def test_l2_is_subset_of_l3(ops):
    m = run_ops(ops)
    l3_lines = set()
    for bank in m.memsys.l3.banks:
        l3_lines.update(resident(bank.cache))
    for core in range(4):
        for line in resident(m.memsys.l2s[core]):
            assert line in l3_lines, "L2/L3 inclusion violated"


@given(ops=OPS)
@settings(deadline=None)
def test_directory_matches_l2_contents(ops):
    m = run_ops(ops)
    d = m.memsys.directory
    for core in range(4):
        for line in resident(m.memsys.l2s[core]):
            assert core in holders(d, line), (
                "L2 holds a line the directory does not track")
    # And the converse: every tracked holder really holds the line.
    for line in list(d._entries):
        for holder in holders(d, line):
            assert peek(m.memsys.l2s[holder], line) is not None, (
                "directory tracks a holder whose L2 lost the line")


@given(ops=OPS)
@settings(deadline=None)
def test_single_owner_for_modified_lines(ops):
    m = run_ops(ops)
    for line in list(m.memsys.directory._entries):
        holders = [c for c in range(4)
                   if peek(m.memsys.l2s[c], line) is not None]
        states = [peek(m.memsys.l2s[c], line) for c in holders]
        if any(s in (MesiState.MODIFIED, MesiState.EXCLUSIVE)
               for s in states):
            assert len(holders) == 1, "M/E line with multiple holders"


@given(ops=OPS)
@settings(deadline=None)
def test_completion_times_are_causal(ops):
    """Each access completes at or after its issue time."""
    m = Machine(MachineConfig.small(num_cores=4))
    ports = [m.memsys.make_port(core) for core in range(4)]
    t = 0
    for core, addr, is_write in ops:
        done = ports[core](addr, is_write, t)
        assert done >= t
        t = done


@given(ops=OPS)
@settings(deadline=None)
def test_bus_traffic_only_on_l3_boundary(ops):
    """Bus transfers arise only from L3 misses and dirty L3 evictions:
    the write-backs, the transfers beyond the misses, are at most the
    L3's evictions, and every transfer is one DRAM access."""
    mem = run_ops(ops).memsys
    evicted = sum(bank.cache.evictions for bank in mem.l3.banks)
    assert 0 <= mem.l3_writebacks_to_dram <= evicted
    assert mem.dram.stats.accesses == mem.bus.stats.transfers


# -- the port walk against the specification's access() ----------------------

#: A quarter of ``small()``'s L3 — eight lines a bank — under four 64-line
#: L2s, so that L3 victims usually still have private copies to recall.
SHRUNK_L3 = replace(MachineConfig.small(num_cores=4), l3_bytes=16 * 1024)
#: The same machine on a narrow ring: a link takes 16 cycles a message.
CONTENDED_RING = replace(SHRUNK_L3, ring_link_occupancy=16)

#: Two of the eight home banks and three times the lines they hold, so
#: that sixty ops overflow an L3 set.  One integer an op: drawing four
#: values an op is most of what such a test costs.


def _wide_op(code: int) -> tuple[int, int, bool]:
    code, is_write = divmod(code, 2)
    code, core = divmod(code, 4)
    row, bank = divmod(code, 2)
    return core, (1 << 20) + (row * 8 + bank) * 64, bool(is_write)


WIDE_OPS = st.lists(st.integers(0, 2 * 4 * 2 * 24 - 1).map(_wide_op),
                    min_size=60, max_size=300)


def state_of(m: Machine) -> dict:
    """Everything the memory system holds, order and payloads included."""
    mem = m.memsys
    caches = mem.l1s + mem.l2s + [bank.cache for bank in mem.l3.banks]
    return {
        "contents": {c.name: [list(s.items()) for s in c._sets]
                     for c in caches},
        "cache_stats": {c.name: c.stats for c in caches},
        "directory": dict(mem.directory._entries),
        "memsys": mem.stats,
        "coherence": mem.directory.stats,
        "ring": m.ring.stats,
        "ring_links": m.ring._link_free,
        "bus": mem.bus.stats,
        "dram": mem.dram.stats,
        "bus_timeline": (mem.bus._timeline._starts, mem.bus._timeline._ends),
        "l3_free_at": [bank._free for bank in mem.l3.banks],
        "dram_free_at": list(mem.dram._bank_free),
    }


def legs_of(m: Machine) -> tuple[int, ...]:
    mem, coherence = m.memsys.stats, m.memsys.directory.stats
    return (mem.recalls, mem.l2_writebacks, m.memsys.l3_writebacks_to_dram,
            coherence.invalidations_sent, coherence.writebacks_to_l3,
            coherence.cache_to_cache, coherence.upgrades)


def run_both(ops, config: MachineConfig = SHRUNK_L3,
             overlap: bool = False) -> set[str]:
    """Drive ``ops`` down both paths; return the rare legs they took.

    With ``overlap`` each core keeps its own clock, so the cores' accesses
    overlap in time instead of following one another.
    """
    walk, reference = Machine(config), Machine(config)
    walk_ports = [walk.memsys.make_port(core) for core in range(4)]
    reference_ports = [spec_memsys.port(reference.memsys, core)
                       for core in range(4)]
    seen: set[str] = set()
    clocks = [0] * 4
    t = 0
    for index, (core, addr, is_write) in enumerate(ops):
        if overlap:
            t = clocks[core]
        # Some legs show in the state the op finds ...
        mem = reference.memsys
        line = addr // config.line_bytes
        entry = mem.directory._entries.get(line)
        in_l2 = peek(mem.l2s[core], line) is not None
        if is_write and not in_l2 and type(entry) is set and entry - {core}:
            seen.add("GetM fan-out")
        owner, owner_dirty = entry if type(entry) is tuple else (None, False)
        # The owner's copies and the home bank's, as the op finds them.
        owner_held = (owner is not None and holds(mem.l1s[owner], line)
                      and holds(mem.l2s[owner], line))
        l3 = home(mem, line)[0].cache
        l3_dirty = peek(l3, line) is True
        before = legs_of(reference)
        done = walk_ports[core](addr, is_write, t)
        expected = reference_ports[core](addr, is_write, t)
        assert done == expected, f"op {index}: {done} != {expected}"
        t = clocks[core] = done
        # ... the rest in the counters it moves.
        (recalls, l2_writebacks, posted, invalidations, to_l3, forwards,
         upgrades) = (b - a for a, b in zip(before, legs_of(reference)))
        # A load invalidates nothing except through the recall its L3
        # fill causes, and an op fills the L3 at most once.
        if recalls and not is_write and invalidations >= 2:
            seen.add("recall with sharers")
        # Dirty data returns to the L3 from an evicted or a recalled owner.
        if recalls and not forwards and to_l3 > l2_writebacks:
            seen.add("recall of a dirty owner")
        if posted:
            seen.add("posted write-back of a dirty L3 victim")
        if l2_writebacks:
            seen.add("dirty L2 eviction")
        if (forwards and not is_write
                and peek(mem.l2s[owner], line) is MesiState.SHARED):
            if not owner_dirty:
                seen.add("forward to a load from a clean owner")
            elif l3_dirty and peek(l3, line) is False:
                seen.add("forward to a load from a dirty owner, L3 cleaned")
        if (forwards and is_write and owner_held
                and not holds(mem.l1s[owner], line)
                and peek(mem.l2s[owner], line) is None):
            seen.add("forward to a store, owner's L1 and L2 invalidated")
        if upgrades and not invalidations:
            seen.add("upgrade with no other sharer")
        if upgrades and invalidations >= 2:
            seen.add("upgrade invalidating two sharers or more")
    assert state_of(walk) == state_of(reference)
    if reference.ring.stats.link_wait_cycles:
        seen.add("a message waited for a ring link")
    return seen


@given(ops=WIDE_OPS)
@settings(deadline=None)
def test_port_walk_matches_reference_access(ops):
    for leg in run_both(ops):
        event(leg)


@given(ops=WIDE_OPS)
@settings(deadline=None)
def test_port_walk_matches_reference_on_a_contended_ring(ops):
    """Every ring leg reserves its links on the port as in the
    specification: the link timelines and ``link_wait_cycles`` agree."""
    for leg in run_both(ops, CONTENDED_RING, overlap=True):
        event(leg)


RARE_LEGS = {
    "recall with sharers", "recall of a dirty owner",
    "posted write-back of a dirty L3 victim", "dirty L2 eviction",
    "forward to a load from a clean owner",
    "forward to a load from a dirty owner, L3 cleaned",
    "forward to a store, owner's L1 and L2 invalidated",
    "upgrade with no other sharer",
    "upgrade invalidating two sharers or more", "GetM fan-out"}


@pytest.mark.parametrize("config, legs", [
    (SHRUNK_L3, RARE_LEGS),
    (CONTENDED_RING, RARE_LEGS | {"a message waited for a ring link"}),
], ids=["SHRUNK_L3", "CONTENDED_RING"])
def test_port_walk_matches_reference_on_every_rare_leg(config, legs):
    """One seeded sequence long enough to take every rare leg.

    The first part thrashes the L3 (recalls, posted write-backs).  The
    second keeps to eight lines of one L2 set, which the L3 holds: L2
    evictions then leave dirty L3 copies and lone sharers behind, which
    is what a forward that cleans the L3 and an upgrade with nobody to
    invalidate need.

    On the contended ring the order in which a fan-out's victims are
    sent their invalidations decides who waits for a link, so the port
    must take them in the specification's order."""
    rng = random.Random(13)
    ops: list[tuple[int, int, bool]] = []
    for _ in range(6000):
        ops.append((rng.randrange(4), (1 << 20) + rng.randrange(192) * 64,
                    rng.random() < 0.4))
    for _ in range(1000):
        ops.append((rng.randrange(4), (1 << 20) + rng.randrange(8) * 16 * 64,
                    rng.random() < 0.4))
    assert run_both(ops, config) == legs


@pytest.mark.parametrize("walk", ["port", "spec"])
def test_a_dirty_l2_victim_without_an_l3_copy_raises(walk):
    """L2 ⊆ L3 makes a dirty L2 victim's write-back land in its home
    bank, so the posted write-back has one site, the dirty L3 victim.
    Break inclusion by hand and the eviction raises instead of writing
    the line off-chip at cycle 0."""
    m = Machine(MachineConfig.small(num_cores=4))
    port = (m.memsys.make_port(0) if walk == "port"
            else spec_memsys.port(m.memsys, 0))
    addr = 1 << 20
    t = port(addr, True, 0)
    line = addr // m.config.line_bytes
    home(m.memsys, line)[0].cache.invalidate(line)
    stride = m.memsys.l2s[0].num_sets * m.config.line_bytes
    with pytest.raises(SimulationError, match="inclusion"):
        for k in range(1, m.config.l2_assoc + 1):
            t = port(addr + k * stride, False, t)
    assert m.memsys.l3_writebacks_to_dram == 0


@pytest.mark.parametrize("walk", ["port", "spec"])
def test_a_store_hitting_an_l1_line_without_an_l2_copy_raises(walk):
    """Every path that drops an L2 copy drops the L1 copy with it, so a
    store's L1 hit always finds the L2 copy it needs.  Plant the state
    by hand and the store raises instead of refilling the L2 without a
    counted miss."""
    m = Machine(MachineConfig.small(num_cores=4))
    port = (m.memsys.make_port(0) if walk == "port"
            else spec_memsys.port(m.memsys, 0))
    addr = 1 << 20
    t = port(addr, False, 0)
    m.memsys.l2s[0].invalidate(addr // m.config.line_bytes)
    with pytest.raises(SimulationError, match="inclusion"):
        port(addr, True, t)


# -- the derived counters against counts of their own -------------------------

class OpCounter(SimObserver):
    """Counts each core's loads and stores as the cores issue them."""

    def on_attach(self, machine: Machine) -> None:
        self.placement = machine._placement
        self.ops: Counter[tuple[int, bool]] = Counter()

    def on_access(self, agent, addr, is_store, now) -> None:
        self.ops[self.placement[agent][0].core_id, is_store] += 1


def _counted_factory(tid: int, team: int):
    """``tid + 1`` rounds of private and shared loads and stores, a
    counter read and a lock: 20 Compute instructions a round."""
    for i in range(tid + 1):
        yield Compute(13)
        yield Load(tid << 16 | i * 64)
        value = yield ReadCounter(CounterKind.RETIRED_OPS)
        assert value > 0
        yield Store((1 << 24) + (i % 3) * 64)
        yield Lock(0)
        yield Compute(7)
        yield Load(1 << 24)
        yield Unlock(0)


@pytest.mark.parametrize("smt", [1, 2])
def test_retired_and_loads_are_the_ops_the_cores_issued(smt):
    """A core's retired count is its Compute instructions plus the loads
    and stores its contexts issued, which an observer counts here; the
    loads and stores chip-wide are those the observer saw."""
    config = replace(MachineConfig.small(num_cores=4), smt_threads=smt)
    counter = OpCounter()
    m = Machine(config, counter)
    team = config.num_thread_slots
    m.run_parallel([_counted_factory] * team)
    computed = Counter()
    for tid in range(team):
        computed[tid % config.num_cores] += 20 * (tid + 1)
    for core in range(config.num_cores):
        memory_ops = counter.ops[core, False] + counter.ops[core, True]
        assert memory_ops > 0
        assert (m.counters.retired(core)
                == m.cores[core].retired_instructions
                == m.counters.read(CounterKind.RETIRED_OPS, core)
                == computed[core] + memory_ops)
    assert m.snapshot().retired_instructions == sum(
        map(m.counters.retired, range(config.num_cores)))
    assert m.memsys.loads == sum(
        n for (_, is_store), n in counter.ops.items() if not is_store)
    assert m.memsys.stats.stores == sum(
        n for (_, is_store), n in counter.ops.items() if is_store)


def shadow_walk(config: MachineConfig, stream) -> dict[str, int]:
    """One core's loads and stores on true-LRU sets keyed as the walk
    keys them, with inclusion: an L3 victim takes the L2 and L1 copies,
    an L2 victim the L1 copy, and dirty data moves down.  Returns the
    evictions per level, the L3 misses and the dirty L3 victims."""
    amap = AddressMap.of(config)
    l1: dict[int, dict[int, bool]] = {}
    l2: dict[int, dict[int, bool]] = {}
    l3: dict[tuple[int, int], dict[int, bool]] = {}
    counts = Counter()

    def fill(sets, key, line, assoc, level, dirty=False):
        """Install ``line``; return the evicted ``(line, dirty)`` or None."""
        s = sets.setdefault(key, {})
        victim = None
        if len(s) >= assoc:
            victim = next(iter(s))
            victim = (victim, s.pop(victim))
            counts[level] += 1
        s[line] = dirty
        return victim

    for line, is_write in stream:
        s1, s2 = (l1.get(line & amap.l1_set_mask, {}),
                  l2.get(line & amap.l2_set_mask, {}))
        if line in s1:
            s1[line] = s1.pop(line)
            s2[line] = s2[line] or is_write  # in place: E or M
            continue
        if line in s2:
            s2[line] = s2.pop(line) or is_write
        else:
            key3 = line & amap.l3_bank_mask, line & amap.l3_set_mask
            s3 = l3.get(key3, {})
            if line in s3:
                s3[line] = s3.pop(line)
            else:
                counts["l3 misses"] += 1
                victim = fill(l3, key3, line, config.l3_assoc, "l3")
                if victim is not None:
                    v, dirty = victim
                    l1.get(v & amap.l1_set_mask, {}).pop(v, None)
                    held = l2.get(v & amap.l2_set_mask, {}).pop(v, None)
                    counts["dirty l3 victims"] += bool(dirty or held)
            victim = fill(l2, line & amap.l2_set_mask, line,
                          config.l2_assoc, "l2", is_write)
            if victim is not None:
                v, dirty = victim
                if l1.get(v & amap.l1_set_mask, {}).pop(v, None) is not None:
                    counts["l2 victims in the l1"] += 1
                if dirty:  # inclusion: the L3 holds the victim
                    l3[v & amap.l3_bank_mask, v & amap.l3_set_mask][v] = True
        fill(l1, line & amap.l1_set_mask, line, config.l1_assoc, "l1")
    return counts


#: One core's stream over every fourth line: four of ``small()``'s L3
#: sets, which hold half of those 64 lines.  Two hot lines stay in the
#: L1, so their L2 copies age (an L1 hit does not touch the L2) and
#: are evicted under them.
ONE_CORE_OPS = st.lists(
    st.tuples((st.integers(0, 63) | st.integers(0, 1)).map(lambda k: 4 * k),
              st.booleans()),
    min_size=20, max_size=300)


@given(stream=ONE_CORE_OPS)
@settings(deadline=None)
def test_derived_memory_counters_match_a_shadow_lru(stream):
    """Evictions, DRAM accesses, bus busy cycles and the L3's write-backs
    are read from other counters; a shadow model of one core's stream
    counts them itself."""
    config = MachineConfig.small()
    m = Machine(config)
    port = m.memsys.make_port(0)
    base, t = 1 << 14, 0
    for line, is_write in stream:
        t = port((base + line) * config.line_bytes, is_write, t)
    counts = shadow_walk(config, [(base + line, w) for line, w in stream])
    mem = m.memsys
    assert mem.l1s[0].evictions == counts["l1"]
    assert mem.l2s[0].evictions == counts["l2"]
    assert sum(bank.cache.evictions for bank in mem.l3.banks) == counts["l3"]
    assert mem.l3.misses == counts["l3 misses"]
    assert mem.l3_writebacks_to_dram == counts["dirty l3 victims"]
    transfers = counts["l3 misses"] + counts["dirty l3 victims"]
    assert mem.dram.stats.accesses == transfers
    assert mem.bus.stats.busy_cycles == transfers * config.bus_cycles_per_line
    if counts["l3"]:
        event("L3 evictions")
    if counts["dirty l3 victims"]:
        event("dirty L3 victims")
    if counts["l2 victims in the l1"]:
        event("L2 victims in the L1")
