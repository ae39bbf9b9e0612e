"""Executable specification of the memory walk.

``MemorySystem.make_port`` builds the one memory walk the simulator
runs, written for host speed.  This module says what that walk must do,
written for reading: one function per MESI transaction, each a plain
sequence of component operations, in the order the protocol takes them.
``tests/test_property_memsys.py`` and ``tests/test_parity.py``
hold the port to it, bit for bit: the same completion cycles, cache
contents in LRU order, directory, counters and ring links.

The component classes under ``src/repro/sim`` are state and counters:
the port reads and writes that state in place.  Their operations live
here, as functions over the same state — :func:`lookup`, :func:`peek`,
:func:`holds`, :func:`insert`, :func:`update` and :func:`clear` on a
cache, :func:`start_access` on an L3 bank, :func:`data_phase` on the
bus, :func:`dram_access`, :func:`mark_dirty` on the directory — and
the unit tests of each component drive them.  The directory's
transitions (``Directory.on_*``), ``Ring.reserve`` and
``Dram.bank_of`` stay methods: the port calls them too.

A line's home bank, its set in each cache and its DRAM row are fields of
the machine's address map (``memsys.addrmap``): ``repro.sim.addrmap``
draws the split, the overlap of an L3 bank's set with its bank bits
included.

Like the port, the specification counts primary events only: a cache's
hits, misses and invalidations, stores, row-buffer outcomes, bus
transfers.  Their sums (evictions, loads, DRAM accesses, bus busy
cycles, the L3's write-backs) are read from them, so they agree when
the primary counters do.

Every ring message goes through :func:`send`: it is counted here, and
``Ring.reserve`` times it, waiting for busy links on a ring with link
occupancy.

:func:`spec_machine` builds a machine whose cores run on this
specification, stepped op by op: no Compute coalescing, no run-ahead.
"""

from __future__ import annotations

from typing import Any

from repro.errors import SimulationError
from repro.sim.bus import OffChipBus
from repro.sim.cache import UNFILLED, SetAssocCache
from repro.sim.coherence import Directory, MesiState
from repro.sim.config import MachineConfig
from repro.sim.dram import Dram
from repro.sim.l3 import L3Bank
from repro.sim.machine import Machine
from repro.sim.memsys import AccessPort, MemorySystem

M = MesiState.MODIFIED
E = MesiState.EXCLUSIVE
S = MesiState.SHARED


# -- the components' operations ----------------------------------------------

def lookup(cache: SetAssocCache, line: int, touch: bool = True) -> Any | None:
    """The payload of ``line`` in ``cache``, or None on a miss.

    Counts a hit or a miss; ``touch=True`` promotes the line to MRU.
    """
    s = cache._sets[line & cache.set_mask]
    if line not in s:
        cache.stats.misses += 1
        return None
    cache.stats.hits += 1
    if touch:
        s[line] = s.pop(line)
    return s[line]


def peek(cache: SetAssocCache, line: int) -> Any | None:
    """The payload of ``line`` without touching LRU or counting stats."""
    return cache._sets[line & cache.set_mask].get(line)


def holds(cache: SetAssocCache, line: int) -> bool:
    """Whether ``cache`` holds ``line``."""
    return line in cache._sets[line & cache.set_mask]


def insert(cache: SetAssocCache, line: int,
           payload: Any = True) -> tuple[int, Any] | None:
    """Install ``line`` as MRU; return the evicted ``(line, payload)``.

    A resident line gets the new payload and is promoted, evicting
    nothing.  The first fill of a set allocates it (see ``UNFILLED``).
    """
    index = line & cache.set_mask
    s = cache._sets[index]
    if line in s:
        del s[line]
        s[line] = payload
        return None
    if s is UNFILLED:
        s = cache._sets[index] = {}
    victim = None
    if len(s) >= cache.assoc:
        victim_line = next(iter(s))
        victim = (victim_line, s.pop(victim_line))
    s[line] = payload
    return victim


def update(cache: SetAssocCache, line: int, payload: Any) -> bool:
    """Replace a resident line's payload without LRU movement; False
    when the line is not resident."""
    s = cache._sets[line & cache.set_mask]
    if line not in s:
        return False
    s[line] = payload
    return True


def clear(cache: SetAssocCache) -> None:
    """Drop every line (the stats stay, so the dropped lines read as
    evictions), into the ``_sets`` list a port may have bound."""
    cache._sets[:] = [UNFILLED] * cache.num_sets


def start_access(bank: L3Bank, now: int) -> int:
    """Reserve ``bank`` for a request arriving at ``now``; return the
    cycle the access starts."""
    start = max(now, bank._free)
    bank._free = start + bank.occupancy
    return start


def data_phase(bus: OffChipBus, ready: int) -> int:
    """Move one line whose data is ready at ``ready`` over the data bus;
    return the cycle the transfer completes."""
    cycles = bus.cycles_per_line
    start = bus._timeline.reserve(ready, cycles)
    bus.stats.total_wait_cycles += start - ready
    bus.stats.transfers += 1
    return start + cycles


def dram_access(dram: Dram, line: int, now: int) -> int:
    """Access ``line``'s bank at ``now``; return the cycle it completes.

    The bank is reserved until then: a later request to it starts no
    earlier (bank conflicts, Table 1).  A line's row is its granule.
    """
    row = line // dram.addrmap.dram_granule
    bank = dram.bank_of(row)
    stats = dram.stats
    start = max(now, dram._bank_free[bank])
    stats.total_queue_cycles += start - now
    open_row = dram._open_row[bank]
    if open_row is None:
        latency = dram._closed_lat
        stats.row_closed += 1
    elif open_row == row:
        latency = dram._hit_lat
        stats.row_hits += 1
    else:
        latency = dram._conflict_lat
        stats.row_conflicts += 1
    dram._bank_free[bank] = start + latency
    # Open-page leaves the row latched; closed-page precharges it.
    dram._open_row[bank] = row if dram._open_page else None
    return start + latency


def mark_dirty(directory: Directory, line: int, core: int) -> None:
    """``core``, the owner, dirtied its E copy of ``line`` (E→M)."""
    if directory._entries.get(line) == (core, False):
        directory._entries[line] = (core, True)


def home(memsys: MemorySystem, line: int) -> tuple[L3Bank, int]:
    """``line``'s home bank (banks are line-interleaved) and its ring
    node."""
    index = line & memsys.addrmap.l3_bank_mask
    return memsys.l3.banks[index], memsys.bank_nodes[index]


# -- the walk --------------------------------------------------------------------

def send(memsys: MemorySystem, t: int, src: int, dst: int) -> int:
    """One ring message sent at cycle ``t``; return its arrival."""
    ring = memsys.ring
    ring.stats.messages += 1
    ring.stats.total_hops += ring.hops(src, dst)
    return ring.reserve(t, src, dst)


def access(memsys: MemorySystem, core: int, addr: int, is_write: bool,
           now: int) -> int:
    """One load or store by ``core``; return the cycle it completes."""
    line = addr >> memsys.addrmap.offset_bits
    if is_write:
        memsys.stats.stores += 1
    l1, l2 = memsys.l1s[core], memsys.l2s[core]
    t = now + memsys.config.l1_latency

    if lookup(l1, line) is not None:
        if not is_write:
            return t
        # Write-through L1: a store needs a writable (M or E) L2 copy.
        state = peek(l2, line)
        if state is M:
            return t
        if state is E:
            update(l2, line, M)
            mark_dirty(memsys.directory, line, core)
            return t
        if state is S:
            return upgrade(memsys, core, line, t)
        raise SimulationError(
            f"L1 line {line:#x} has no L2 copy: inclusion is broken")

    t += memsys.config.l2_latency
    state = lookup(l2, line)
    if state is None:
        return miss(memsys, core, line, is_write, t)
    if is_write and state is E:
        update(l2, line, M)
        mark_dirty(memsys.directory, line, core)
    elif is_write and state is S:
        t = upgrade(memsys, core, line, t)
    # L1 evictions are silent: a write-through L1 is never dirty.
    insert(l1, line, True)
    return t


def invalidate(memsys: MemorySystem, victims: set[int], line: int,
               bank_node: int, t_dir: int) -> int:
    """The home bank invalidates ``victims``' private copies of ``line``;
    return the cycle it holds every acknowledgement."""
    acks = t_dir
    for victim in victims:
        node = memsys.core_nodes[victim]
        t_inv = send(memsys, t_dir, bank_node, node) + memsys.config.l2_latency
        acks = max(acks, send(memsys, t_inv, node, bank_node))
        memsys.l2s[victim].invalidate(line)
        memsys.l1s[victim].invalidate(line)
    return acks


def upgrade(memsys: MemorySystem, core: int, line: int, t: int) -> int:
    """S→M upgrade: the home bank invalidates every other sharer, then
    grants ownership."""
    bank, bank_node = home(memsys, line)
    core_node = memsys.core_nodes[core]
    t_dir = start_access(bank, send(memsys, t, core_node, bank_node)) + bank.latency
    victims = memsys.directory.on_upgrade(line, core)
    acks = invalidate(memsys, victims, line, bank_node, t_dir)
    update(memsys.l2s[core], line, M)
    done = send(memsys, acks, bank_node, core_node)
    if memsys.observer is not None:
        memsys.observer.on_mem_access(core, line, True, t, done)
    return done


def miss(memsys: MemorySystem, core: int, line: int, is_write: bool,
         t: int) -> int:
    """L2 miss: a GetS or GetM at the home bank's directory; the data
    comes from the owner's L2, the L3 or memory; the L2 and L1 fill."""
    bank, bank_node = home(memsys, line)
    core_node = memsys.core_nodes[core]
    t_dir = start_access(bank, send(memsys, t, core_node, bank_node)) + bank.latency

    directory = memsys.directory
    sharers: set[int] = set()
    if is_write:
        owner, was_dirty, sharers = directory.on_getm(line, core)
    else:
        owner, was_dirty = directory.on_gets(line, core)

    if owner is not None:
        t_data = forward(memsys, core, line, is_write, owner, was_dirty, t_dir)
    else:
        acks = invalidate(memsys, sharers, line, bank_node, t_dir)
        if lookup(bank.cache, line) is not None:
            ready = acks
        else:
            # Off-chip: the pipelined address phase, DRAM bank, data phase.
            t_mem = dram_access(memsys.dram, line, t_dir + memsys.bus.latency)
            t_bus = data_phase(memsys.bus, t_mem)
            l3_install(memsys, bank, line, t_bus)
            ready = max(t_bus, acks)
        t_data = send(memsys, ready, bank_node, core_node)

    if is_write:
        state = M
    else:
        # E only for a sole holder: the directory has it as the owner.
        state = E if directory._entries.get(line) in ((core, False), (core, True)) else S
    l2_install(memsys, core, line, state)
    insert(memsys.l1s[core], line, True)
    if memsys.observer is not None:
        memsys.observer.on_mem_access(core, line, is_write, t, t_data)
    return t_data


def forward(memsys: MemorySystem, core: int, line: int, is_write: bool,
            owner: int, was_dirty: bool, t_dir: int) -> int:
    """Cache to cache: the home bank forwards the request to the owner's
    L2, which sends the line on to the requester."""
    bank, bank_node = home(memsys, line)
    owner_node = memsys.core_nodes[owner]
    t_owner = send(memsys, t_dir, bank_node, owner_node) + memsys.config.l2_latency
    t_data = send(memsys, t_owner, owner_node, memsys.core_nodes[core])
    if is_write:
        memsys.l2s[owner].invalidate(line)
        memsys.l1s[owner].invalidate(line)
    else:
        update(memsys.l2s[owner], line, S)
        if was_dirty:
            # The dirty data also returns to the home bank, now clean.
            update(bank.cache, line, False)
    return t_data


def l3_install(memsys: MemorySystem, bank: L3Bank, line: int, now: int) -> None:
    """Fill ``line`` into its home bank.  Inclusion recalls the victim's
    private copies; dirty victim data is a posted write-back, which takes
    a bus slot and a DRAM bank slot but never the requester's time."""
    victim = insert(bank.cache, line, False)
    if victim is None:
        return
    victim_line, victim_dirty = victim
    holders, holder_dirty = memsys.directory.on_recall(victim_line)
    for holder in holders:
        memsys.l2s[holder].invalidate(victim_line)
        memsys.l1s[holder].invalidate(victim_line)
    if holders:
        memsys.stats.recalls += 1
    if victim_dirty or holder_dirty:
        dram_access(memsys.dram, victim_line, data_phase(memsys.bus, now))


def l2_install(memsys: MemorySystem, core: int, line: int,
               state: MesiState) -> None:
    """Fill ``line`` into ``core``'s L2.  The victim's L1 copy goes with
    it (inclusion), the directory forgets the core, and dirty data goes
    back to the home bank."""
    victim = insert(memsys.l2s[core], line, state)
    if victim is None:
        return
    victim_line, victim_state = victim
    memsys.l1s[core].invalidate(victim_line)
    dirty = memsys.directory.on_evict(victim_line, core, victim_state)
    if victim_state is M or dirty:
        memsys.stats.l2_writebacks += 1
        if not update(home(memsys, victim_line)[0].cache, victim_line, True):
            raise SimulationError(
                f"L2 victim line {victim_line:#x} has no L3 copy: "
                "inclusion is broken")


def port(memsys: MemorySystem, core: int) -> AccessPort:
    """``core``'s access function over the specification (it makes the
    core's L1 and L2 as the walk's port does)."""
    memsys._private_caches(core)

    def spec_port(addr: int, is_write: bool, now: int) -> int:
        return access(memsys, core, addr, is_write, now)
    return spec_port


def spec_machine(config: MachineConfig, observer=None, *,
                 shortcuts: bool = False) -> Machine:
    """A machine whose cores run on the specification.

    A core reads its memory port and its two shortcuts when its first
    thread starts, so placing every slot up front (which builds every
    core) and setting them there is enough.  With ``shortcuts=False``
    the machine is stepped op by op: no Compute coalescing and no
    run-ahead.
    """
    machine = Machine(config, observer)
    machine._place(config.num_thread_slots)
    for core in machine.cores:
        core._mem_access = port(machine.memsys, core.core_id)
        if not shortcuts:
            core._coalesce = core._run_ahead = False
    return machine
