"""The full memory hierarchy: L1 → L2 → ring → L3/directory → bus → DRAM.

:class:`MemorySystem` resolves one core memory access into a completion
time using resource-reservation timing.  All coherence state transitions
happen synchronously at resolution time in global event order, which keeps
the protocol race-free and the simulation deterministic.

The hierarchy per Table 1:

* L1: 8 KB write-through private data cache, 1-cycle.  Write-through means
  stores never dirty L1; a store retires from the write buffer as soon as
  the core's L2 copy is writable (M/E), so store *hits* cost the L1 latency
  only, while stores needing coherence actions block the in-order core.
* L2: 64 KB 4-way inclusive private cache, MESI states, write-back.
* L3: 8 MB, 8 banks, 20-cycle, shared, inclusive of the private L2s
  (evictions recall private copies).
* Off-chip: split-transaction bus (the bandwidth bottleneck) feeding 32
  DRAM banks with open-page row buffers.

The walk exists once: the per-core port :meth:`MemorySystem.make_port`
builds, written for host speed, serves every valid
:class:`MachineConfig`.  It reads and writes the components' state in
place (cache sets, directory entries, L3 and DRAM bank clocks, the bus
timeline); each component class is that state and its counters.  Its
specification is ``tests/spec_memsys.py``: one function per MESI
transaction, written over the components' operations (a cache's
``lookup`` / ``insert`` / ``peek`` / ``update``, an L3 bank's
``start_access``, the bus's ``data_phase``, ``dram_access``, the
directory's ``mark_dirty``), which are functions over the same state
there.  The property suites hold the port to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import SimulationError
from repro.sim.addrmap import AddressMap
from repro.sim.bus import OffChipBus
from repro.sim.cache import UNFILLED, SetAssocCache
from repro.sim.coherence import Directory, MesiState
from repro.sim.config import MachineConfig
from repro.sim.dram import Dram
from repro.sim.l3 import SharedL3
from repro.sim.ring import Ring

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.observer import SimObserver

#: A core-side access function: ``port(addr, is_write, now) -> done``.
AccessPort = Callable[[int, bool, int], int]

_M = MesiState.MODIFIED
_E = MesiState.EXCLUSIVE
_S = MesiState.SHARED


@dataclass(slots=True)
class MemSysStats:
    """Chip-wide access counters kept by the memory system itself."""

    loads: int = 0
    stores: int = 0
    l2_writebacks: int = 0
    l3_writebacks_to_dram: int = 0
    recalls: int = 0


class MemorySystem:
    """Per-core private caches plus all shared structures."""

    __slots__ = ("config", "addrmap", "ring", "core_nodes", "bank_nodes",
                 "l1s", "l2s", "l3", "directory", "bus", "dram", "stats",
                 "observer")

    def __init__(self, config: MachineConfig, ring: Ring,
                 core_nodes: list[int], bank_nodes: list[int],
                 observer: "SimObserver | None" = None) -> None:
        self.config = config
        #: Every index the walk takes from a line (repro.sim.addrmap).
        self.addrmap = addrmap = AddressMap.of(config)
        self.ring = ring
        self.core_nodes = core_nodes
        self.bank_nodes = bank_nodes
        #: Per core id, its L1 and L2, made by :meth:`_private_caches`.
        self.l1s: list[SetAssocCache] = []
        self.l2s: list[SetAssocCache] = []
        self.l3 = SharedL3(config, addrmap)
        self.directory = Directory()
        self.bus = OffChipBus(config)
        self.dram = Dram(config, addrmap)
        self.stats = MemSysStats()
        #: Observer (repro.sim.observer), or None; fed the stall
        #: intervals of L2 misses and coherence upgrades — the accesses
        #: that actually block an in-order core.
        self.observer = observer

    def _private_caches(self, core: int) -> tuple[SetAssocCache,
                                                  SetAssocCache]:
        """``core``'s L1 and L2, made at first use with any lower core's."""
        cfg, amap, l1s, l2s = self.config, self.addrmap, self.l1s, self.l2s
        while len(l1s) <= core:
            l1s.append(SetAssocCache(amap.l1_set_mask, cfg.l1_assoc,
                                     name=f"l1.{len(l1s)}"))
            l2s.append(SetAssocCache(amap.l2_set_mask, cfg.l2_assoc,
                                     name=f"l2.{len(l2s)}"))
        return l1s[core], l2s[core]

    def make_port(self, core: int) -> AccessPort:
        """Build ``core``'s access function: the one memory walk.

        First makes ``core``'s L1 and L2; a walk reaches another core's
        caches only when that core holds the line, so it has them.  The
        port takes a load or a store from the L1 probe to the DRAM fill
        with everything it reads bound here: the address map's fields
        as ints, this core's L1/L2 sets and stats, the directory's
        entries and this core's owned entries ``(core, False)`` /
        ``(core, True)``, per home bank the hops and the bank's sets and
        stats, the ring, the bus timeline and the DRAM bank state.  A
        call pays for every name its function binds, so ``port`` holds
        the L1/L2 probes and what a hit needs, ``miss`` the walk past
        the L2.  The straight line of ``miss`` is the common case — no
        other core holds the line, data comes from the L3 or memory —
        with the L3 and L2 fill victims (a dirty L3 victim's posted
        write-back too) and the sharing legs handled in place: the S→M ``upgrade``, the cache-to-cache forward and a
        GetM's fan-out, which shares ``invalidate`` with the upgrade.
        A ring leg arrives at ``t + hops * hop_latency``, or at
        ``Ring.reserve``'s answer on a ring with link occupancy.  Out of
        line, as the specification calls them too: the directory's
        ``on_*`` transitions, the recall of an L3 victim held in S
        (``SetAssocCache.invalidate``), a bus reservation that fills a
        gap and the bank hash of a granule not yet memoised
        (``Dram.bank_of``).  A dirty L2 victim without an L3 copy breaks
        inclusion: a :class:`SimulationError`.

        ``tests/spec_memsys.py`` is the specification the walk is held
        to (``tests/test_property_memsys.py``): same completion cycles,
        cache contents in LRU order, directory, counters and ring links.
        """
        l1, l2 = self._private_caches(core)
        amap = self.addrmap
        offset_bits, bank_mask = amap.offset_bits, amap.l3_bank_mask
        l1_mask, l2_mask = amap.l1_set_mask, amap.l2_set_mask
        l3_mask, granule = amap.l3_set_mask, amap.dram_granule
        cfg = self.config
        stats = self.stats
        observer = self.observer
        l1_latency, l2_latency = cfg.l1_latency, cfg.l2_latency
        l1_l2_latency = l1_latency + l2_latency
        l1_sets, l1_stats, l1_assoc = l1._sets, l1.stats, l1.assoc
        l2_sets, l2_stats, l2_assoc = l2._sets, l2.stats, l2.assoc
        l1s, l2s = self.l1s, self.l2s  # every core's, for invalidations

        directory = self.directory
        entries = directory._entries
        coherence = directory.stats
        #: This core's two owned directory entries, E and M.
        own_clean, own_dirty = (core, False), (core, True)

        ring_stats, hop_latency = self.ring.stats, self.ring.hop_latency
        dist, num_nodes = self.ring.dist, self.ring.num_nodes
        reserve = self.ring.reserve if self.ring.link_occupancy else None
        core_nodes, core_node = self.core_nodes, self.core_nodes[core]
        l3_assoc = cfg.l3_assoc
        l3_latency = self.l3.banks[0].latency
        l3_occupancy = self.l3.banks[0].occupancy
        #: Per home bank: the bank, its ring node, hops and cycles from
        #: this core to it, its sets and stats.
        homes = []
        for bank, node in zip(self.l3.banks, self.bank_nodes):
            hops = self.ring.hops(core_node, node)
            homes.append((bank, node, hops, hops * hop_latency,
                          bank.cache._sets, bank.cache.stats))

        def invalidate(victims: set[int], line: int, bank_node: int,
                       t_dir: int) -> int:
            """Invalidate ``victims``' copies; return the last ack's cycle."""
            acks = t_dir
            for victim in victims:
                victim_node = core_nodes[victim]
                hops = dist[(victim_node - bank_node) % num_nodes]
                ring_stats.messages += 2
                ring_stats.total_hops += 2 * hops
                t_ack = (t_dir + 2 * hops * hop_latency + l2_latency
                         if reserve is None else
                         reserve(reserve(t_dir, bank_node, victim_node)
                                 + l2_latency, victim_node, bank_node))
                if t_ack > acks:
                    acks = t_ack
                cache = l2s[victim]
                if cache._sets[line & l2_mask].pop(line, None) is not None:
                    cache.stats.invalidations += 1
                cache = l1s[victim]
                if cache._sets[line & l1_mask].pop(line, None) is not None:
                    cache.stats.invalidations += 1
            return acks

        def upgrade(line: int, t: int, s2: dict[int, Any]) -> int:
            """S→M upgrade of ``line``, resident in ``s2``."""
            bank, bank_node, hops, hop_cycles, _, _ = homes[line & bank_mask]
            ring_stats.messages += 2
            ring_stats.total_hops += 2 * hops
            arrival = (t + hop_cycles if reserve is None
                       else reserve(t, core_node, bank_node))
            free = bank._free
            start = arrival if arrival >= free else free
            bank._free = start + l3_occupancy
            t_dir = start + l3_latency
            victims = directory.on_upgrade(line, core)
            acks = invalidate(victims, line, bank_node, t_dir)
            s2[line] = _M  # in place: no LRU movement
            done = (acks + hop_cycles if reserve is None
                    else reserve(acks, bank_node, core_node))
            if observer is not None:
                observer.on_mem_access(core, line, True, t, done)
            return done

        bus = self.bus
        bus_latency = bus.latency
        bus_cycles = bus.cycles_per_line
        bus_stats = bus.stats
        bus_starts, bus_ends = bus._timeline._starts, bus._timeline._ends
        bus_reserve = bus._timeline.reserve

        dram = self.dram
        dram_stats = dram.stats
        dram_bank_of = dram.bank_of
        granule_bank = dram._granule_bank
        dram_free, open_rows = dram._bank_free, dram._open_row
        open_page = dram._open_page
        row_hit, row_conflict, row_closed = (
            dram._hit_lat, dram._conflict_lat, dram._closed_lat)

        def miss(line: int, is_write: bool, t: int,
                 s1: dict[int, Any], s2: dict[int, Any]) -> int:
            """The walk past the L2: ``s1``/``s2`` are the probed sets."""
            # -- request to the home bank's directory ----------------------
            bank, bank_node, hops, hop_cycles, sets3, stats3 = homes[line & bank_mask]
            arrival = (t + hop_cycles if reserve is None
                       else reserve(t, core_node, bank_node))
            free = bank._free
            start = arrival if arrival >= free else free
            bank._free = start + l3_occupancy
            # The directory has answered, and so have the invalidated.
            ready = acks = start + l3_latency
            forward_from: int | None = None
            entry = entries.get(line)
            if entry is None:
                # Nobody holds the line: the requester becomes its owner.
                if is_write:
                    coherence.getm += 1
                    entries[line] = own_dirty
                    new_state = _M
                else:
                    coherence.gets += 1
                    entries[line] = own_clean
                    new_state = _E
            elif is_write:
                forward_from, was_dirty, invalidated = (
                    directory.on_getm(line, core))
                new_state = _M
                if forward_from is None and invalidated:
                    acks = invalidate(invalidated, line, bank_node, ready)
            else:
                forward_from, was_dirty = directory.on_gets(line, core)
                new_state = _E if type(entry) is tuple and entry[0] == core else _S

            if forward_from is not None:
                # Cache-to-cache: home bank -> owner's L2 -> requester.
                owner_node = core_nodes[forward_from]
                via_owner = (dist[(owner_node - bank_node) % num_nodes]
                             + dist[(core_node - owner_node) % num_nodes])
                ring_stats.messages += 3  # request, forward, data
                ring_stats.total_hops += hops + via_owner
                t_data = (ready + via_owner * hop_latency + l2_latency
                          if reserve is None else
                          reserve(reserve(ready, bank_node, owner_node)
                                  + l2_latency, owner_node, core_node))
                cache = l2s[forward_from]
                s = cache._sets[line & l2_mask]
                if is_write:
                    if s.pop(line, None) is not None:
                        cache.stats.invalidations += 1
                    cache = l1s[forward_from]
                    if cache._sets[line & l1_mask].pop(line, None) is not None:
                        cache.stats.invalidations += 1
                else:
                    if line in s:
                        s[line] = _S  # downgrade, in place
                    if was_dirty:  # the home bank's copy is now clean
                        s3 = sets3[line & l3_mask]
                        if line in s3:
                            s3[line] = False
            else:
                s3 = sets3[line & l3_mask]
                if line in s3:
                    stats3.hits += 1
                    s3[line] = s3.pop(line)  # LRU touch
                    ready = acks
                else:
                    stats3.misses += 1
                    # Off-chip: address phase, DRAM bank, bus data phase.
                    t_req = ready + bus_latency
                    row = line // granule
                    dbank = granule_bank.get(row)
                    if dbank is None:
                        dbank = dram_bank_of(row)
                    free = dram_free[dbank]
                    start = t_req if t_req >= free else free
                    dram_stats.total_queue_cycles += start - t_req
                    open_row = open_rows[dbank]
                    if open_row is None:
                        t_mem = start + row_closed
                        dram_stats.row_closed += 1
                    elif open_row == row:
                        t_mem = start + row_hit
                        dram_stats.row_hits += 1
                    else:
                        t_mem = start + row_conflict
                        dram_stats.row_conflicts += 1
                    dram_free[dbank] = t_mem
                    if open_page:
                        open_rows[dbank] = row
                    dram_stats.accesses += 1
                    # The timeline's cases past and inside its last
                    # interval; reserve() only when a gap is filled.
                    last = bus_ends[-1] if bus_ends else -bus_cycles
                    if t_mem - last >= bus_cycles:
                        bus_starts.append(t_mem)
                        bus_ends.append(t_mem + bus_cycles)
                        start = t_mem
                    elif t_mem >= last:
                        bus_ends[-1] = t_mem + bus_cycles
                        start = t_mem
                    elif bus_starts[-1] <= t_mem:
                        bus_ends[-1] = last + bus_cycles
                        start = last
                    else:
                        start = bus_reserve(t_mem, bus_cycles)
                    t_bus = start + bus_cycles
                    bus_stats.total_wait_cycles += start - t_mem
                    bus_stats.busy_cycles += bus_cycles
                    bus_stats.transfers += 1
                    # Fill the L3; the probe just missed, the line is absent.
                    if len(s3) >= l3_assoc:
                        victim = next(iter(s3))
                        victim_dirty = s3.pop(victim)
                        stats3.evictions += 1
                        s3[line] = False
                        # Inclusion: recall the victim's private copies.
                        held = entries.get(victim)
                        if held is not None:
                            if type(held) is set:
                                for holder in directory.on_recall(victim)[0]:
                                    l2s[holder].invalidate(victim)
                                    l1s[holder].invalidate(victim)
                            else:
                                owner, owner_dirty = held
                                del entries[victim]
                                coherence.invalidations_sent += 1
                                if owner_dirty:
                                    coherence.writebacks_to_l3 += 1
                                    victim_dirty = True
                                cache = l2s[owner]
                                if cache._sets[victim & l2_mask].pop(
                                        victim, None) is not None:
                                    cache.stats.invalidations += 1
                                cache = l1s[owner]
                                if cache._sets[victim & l1_mask].pop(
                                        victim, None) is not None:
                                    cache.stats.invalidations += 1
                            stats.recalls += 1
                        if victim_dirty:
                            # Posted write-back, never the requester's
                            # time: a bus slot behind the fill's transfer
                            # (the timeline ends at or after t_bus) or in
                            # a gap, then a DRAM bank slot.
                            last = bus_ends[-1]
                            if bus_starts[-1] <= t_bus:
                                bus_ends[-1] = last + bus_cycles
                                start = last
                            else:
                                start = bus_reserve(t_bus, bus_cycles)
                            bus_stats.total_wait_cycles += start - t_bus
                            bus_stats.busy_cycles += bus_cycles
                            bus_stats.transfers += 1
                            t_wb = start + bus_cycles
                            row = victim // granule
                            dbank = granule_bank.get(row)
                            if dbank is None:
                                dbank = dram_bank_of(row)
                            free = dram_free[dbank]
                            start = t_wb if t_wb >= free else free
                            dram_stats.total_queue_cycles += start - t_wb
                            open_row = open_rows[dbank]
                            if open_row is None:
                                dram_free[dbank] = start + row_closed
                                dram_stats.row_closed += 1
                            elif open_row == row:
                                dram_free[dbank] = start + row_hit
                                dram_stats.row_hits += 1
                            else:
                                dram_free[dbank] = start + row_conflict
                                dram_stats.row_conflicts += 1
                            if open_page:
                                open_rows[dbank] = row
                            dram_stats.accesses += 1
                            stats.l3_writebacks_to_dram += 1
                    elif s3 is UNFILLED:
                        sets3[line & l3_mask] = {line: False}
                    else:
                        s3[line] = False
                    ready = t_bus if t_bus > acks else acks
                ring_stats.messages += 2  # request and reply
                ring_stats.total_hops += 2 * hops
                t_data = (ready + hop_cycles if reserve is None
                          else reserve(ready, bank_node, core_node))

            # -- fill the L2 (the probe missed: the line is absent) --------
            if len(s2) >= l2_assoc:
                victim = next(iter(s2))
                victim_state = s2.pop(victim)
                l2_stats.evictions += 1
                s2[line] = new_state
                # Inclusion: the L1 copy goes with the L2 copy.
                if l1_sets[victim & l1_mask].pop(victim, None) is not None:
                    l1_stats.invalidations += 1
                held = entries.get(victim)
                if held == own_clean:
                    del entries[victim]
                elif held == own_dirty:
                    coherence.writebacks_to_l3 += 1
                    del entries[victim]
                elif held is not None:
                    directory.on_evict(victim, core, victim_state)
                if victim_state is _M:
                    # Dirty data goes back to the (inclusive) home bank.
                    stats.l2_writebacks += 1
                    s3 = homes[victim & bank_mask][4][victim & l3_mask]
                    if victim not in s3:
                        raise SimulationError(
                            f"L2 victim line {victim:#x} has no L3 copy: "
                            "inclusion is broken")
                    s3[victim] = True
            elif s2 is UNFILLED:
                l2_sets[line & l2_mask] = {line: new_state}
            else:
                s2[line] = new_state
            # -- fill the L1 -----------------------------------------------
            if len(s1) >= l1_assoc:
                del s1[next(iter(s1))]
                l1_stats.evictions += 1
                s1[line] = True
            elif s1 is UNFILLED:
                l1_sets[line & l1_mask] = {line: True}
            else:
                s1[line] = True
            if observer is not None:
                observer.on_mem_access(core, line, is_write, t, t_data)
            return t_data

        def port(addr: int, is_write: bool, now: int) -> int:
            line = addr >> offset_bits
            s1 = l1_sets[line & l1_mask]
            if line in s1:
                l1_stats.hits += 1
                s1[line] = s1.pop(line)  # LRU touch
                if not is_write:
                    stats.loads += 1
                    return now + l1_latency
                # Write-through: the store needs a writable L2 copy.
                stats.stores += 1
                t = now + l1_latency
                s2 = l2_sets[line & l2_mask]
                state = s2.get(line)
                if state is _M:
                    return t
                if state is _E:
                    s2[line] = _M
                    if entries.get(line) == own_clean:
                        entries[line] = own_dirty
                    return t
                if state is _S:
                    return upgrade(line, t, s2)
                # An L1 hit without an L2 copy: drop it, miss in the L2.
                del s1[line]
                l1_stats.invalidations += 1
                return miss(line, True, t, s1, s2)
            l1_stats.misses += 1
            t = now + l1_l2_latency
            s2 = l2_sets[line & l2_mask]
            state = s2.get(line)
            if is_write:
                stats.stores += 1
            else:
                stats.loads += 1
            if state is None:
                l2_stats.misses += 1
                return miss(line, is_write, t, s1, s2)
            l2_stats.hits += 1
            del s2[line]  # LRU touch
            s2[line] = state
            if is_write and state is not _M:
                if state is _E:
                    s2[line] = _M
                    if entries.get(line) == own_clean:
                        entries[line] = own_dirty
                else:
                    t = upgrade(line, t, s2)
            if len(s1) >= l1_assoc:
                del s1[next(iter(s1))]  # silent: L1 is never dirty
                l1_stats.evictions += 1
                s1[line] = True
            elif s1 is UNFILLED:
                l1_sets[line & l1_mask] = {line: True}
            else:
                s1[line] = True
            return t
        return port
