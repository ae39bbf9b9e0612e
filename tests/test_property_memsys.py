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
from dataclasses import replace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.coherence import MesiState
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
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
    """Bus transfers arise only from L3 misses and dirty L3 evictions."""
    m = run_ops(ops)
    transfers = m.memsys.bus.stats.transfers
    misses = m.memsys.l3.misses
    writebacks = m.memsys.stats.l3_writebacks_to_dram
    assert transfers == misses + writebacks


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
    return (mem.recalls, mem.l2_writebacks, mem.l3_writebacks_to_dram,
            coherence.invalidations_sent, coherence.writebacks_to_l3,
            coherence.cache_to_cache, coherence.upgrades)


def run_both(ops, config: MachineConfig = SHRUNK_L3,
             overlap: bool = False) -> set[str]:
    """Drive ``ops`` down both paths; return the rare legs they took.

    An op whose ``is_write`` is None drops the core's L2 copy of the
    line behind the protocol's back (on both machines alike), which is
    the only way to reach the L1-hit-without-L2 branch.  With
    ``overlap`` each core keeps its own clock, so the cores' accesses
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
        if is_write is None:
            for m in (walk, reference):
                m.memsys.l2s[core].invalidate(addr // config.line_bytes)
            continue
        # Some legs show in the state the op finds ...
        mem = reference.memsys
        line = addr // config.line_bytes
        entry = mem.directory._entries.get(line)
        in_l2 = peek(mem.l2s[core], line) is not None
        if is_write and not in_l2 and type(entry) is set and entry - {core}:
            seen.add("GetM fan-out")
        if is_write and holds(mem.l1s[core], line) and not in_l2:
            seen.add("L1 hit without an L2 copy")
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
    "upgrade invalidating two sharers or more", "GetM fan-out",
    "L1 hit without an L2 copy"}


@pytest.mark.parametrize("config, legs", [
    (SHRUNK_L3, RARE_LEGS),
    (CONTENDED_RING, RARE_LEGS | {"a message waited for a ring link"}),
], ids=["SHRUNK_L3", "CONTENDED_RING"])
def test_port_walk_matches_reference_on_every_rare_leg(config, legs):
    """One seeded sequence long enough to take every rare leg, with an
    L2 copy dropped now and then so the defensive branch runs too.

    The first part thrashes the L3 (recalls, posted write-backs).  The
    second keeps to eight lines of one L2 set, which the L3 holds: L2
    evictions then leave dirty L3 copies and lone sharers behind, which
    is what a forward that cleans the L3 and an upgrade with nobody to
    invalidate need.

    On the contended ring the order in which a fan-out's victims are
    sent their invalidations decides who waits for a link, so the port
    must take them in the specification's order."""
    rng = random.Random(13)
    ops: list[tuple[int, int, bool | None]] = []
    for _ in range(6000):
        core, addr = rng.randrange(4), (1 << 20) + rng.randrange(192) * 64
        if rng.random() < 0.01:
            ops += [(core, addr, False), (core, addr, None), (core, addr, True)]
        else:
            ops.append((core, addr, rng.random() < 0.4))
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
    assert m.memsys.stats.l3_writebacks_to_dram == 0
