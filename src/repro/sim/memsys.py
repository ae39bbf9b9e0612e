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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.sim.bus import OffChipBus
from repro.sim.cache import SetAssocCache
from repro.sim.coherence import Directory, DirectoryEntry, MesiState
from repro.sim.config import MachineConfig
from repro.sim.dram import Dram
from repro.sim.engine import slow_paths_enabled
from repro.sim.l3 import SharedL3
from repro.sim.ring import Ring

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.l3 import L3Bank
    from repro.sim.observer import SimObserver

#: A core-side access function: ``port(addr, is_write, now) -> done``.
AccessPort = Callable[[int, bool, int], int]

_M = MesiState.MODIFIED
_E = MesiState.EXCLUSIVE
_S = MesiState.SHARED

#: Shared empty victim set for the (overwhelmingly common) load miss with
#: nobody to invalidate — avoids allocating a ``set()`` per miss.
_NO_VICTIMS: frozenset[int] = frozenset()


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

    __slots__ = ("config", "ring", "core_nodes", "bank_nodes", "l1s", "l2s",
                 "l3", "directory", "bus", "dram", "stats", "observer",
                 "_offset_bits", "_fast")

    def __init__(self, config: MachineConfig, ring: Ring,
                 core_nodes: list[int], bank_nodes: list[int],
                 observer: "SimObserver | None" = None) -> None:
        self.config = config
        self.ring = ring
        self.core_nodes = core_nodes
        self.bank_nodes = bank_nodes
        self.l1s = [
            SetAssocCache(config.l1_bytes, config.l1_assoc, config.line_bytes,
                          name=f"l1.{c}")
            for c in range(config.num_cores)
        ]
        self.l2s = [
            SetAssocCache(config.l2_bytes, config.l2_assoc, config.line_bytes,
                          name=f"l2.{c}")
            for c in range(config.num_cores)
        ]
        self.l3 = SharedL3(config)
        self.directory = Directory()
        self.bus = OffChipBus(config)
        self.dram = Dram(config)
        self.stats = MemSysStats()
        #: Observer (repro.sim.observer), or None; fed the stall
        #: intervals of L2 misses and coherence upgrades — the accesses
        #: that actually block an in-order core.
        self.observer = observer
        self._offset_bits = config.line_bytes.bit_length() - 1
        self._fast = not slow_paths_enabled()

    # -- public API --------------------------------------------------------

    def line_of(self, addr: int) -> int:
        return addr >> self._offset_bits

    def make_port(self, core: int) -> AccessPort:
        """Build ``core``'s access function.

        The returned port resolves the *entire load path* inline with
        pre-bound locals: an L1 hit is one dict probe, an LRU touch and
        two counter bumps; an L1 miss probes the L2 the same way and
        either fills L1 or falls into :meth:`_miss`.  Stores and the
        ``REPRO_SLOW_PATHS=1`` reference mode go through :meth:`access`
        unchanged.  Every counter the port bumps is exactly the one the
        slow path would, in the same order, so stats are bit-identical
        either way.
        """
        full_access = self.access
        l1 = self.l1s[core]
        l2 = self.l2s[core]
        l1_sets, l1_mask, l1_stats = l1.direct_state()
        l2_sets, l2_mask, l2_stats = l2.direct_state()
        if not self._fast or l1_mask < 0 or l2_mask < 0:
            def slow_port(addr: int, is_write: bool, now: int) -> int:
                return full_access(core, addr, is_write, now)
            return slow_port
        stats = self.stats
        offset_bits = self._offset_bits
        l1_latency = self.config.l1_latency
        l1_l2_latency = l1_latency + self.config.l2_latency
        l1_insert = l1.insert
        miss = self._miss

        def port(addr: int, is_write: bool, now: int) -> int:
            if not is_write:
                line = addr >> offset_bits
                s = l1_sets[line & l1_mask]
                if line in s:
                    stats.loads += 1
                    l1_stats.hits += 1
                    s[line] = s.pop(line)  # LRU touch, same as lookup()
                    return now + l1_latency
                # L1 load miss: count it, then probe the L2 inline.  A
                # load hit needs no state transition whatever the MESI
                # state, so the probe is a touch plus an L1 fill.
                stats.loads += 1
                l1_stats.misses += 1
                t = now + l1_l2_latency
                s2 = l2_sets[line & l2_mask]
                if line in s2:
                    l2_stats.hits += 1
                    s2[line] = s2.pop(line)  # LRU touch
                    l1_insert(line, True)
                    return t
                l2_stats.misses += 1
                return miss(core, line, False, t)
            return full_access(core, addr, is_write, now)
        return port

    def access(self, core: int, addr: int, is_write: bool, now: int) -> int:
        """Perform one access; return the cycle the core may proceed."""
        line = addr >> self._offset_bits
        stats = self.stats
        if is_write:
            stats.stores += 1
        else:
            stats.loads += 1

        cfg = self.config
        l1 = self.l1s[core]
        l2 = self.l2s[core]
        t = now + cfg.l1_latency

        l1_hit = l1.lookup(line) is not None
        if l1_hit and not is_write:
            return t

        if l1_hit and is_write:
            # Write-through: store needs a writable (M/E) L2 copy.
            state = l2.peek(line)
            if state is _M:
                return t
            if state is _E:
                l2.update(line, _M)
                self.directory.mark_dirty(line, core)
                return t
            if state is _S:
                return self._upgrade(core, line, t)
            # L1 hit without an L2 copy violates inclusion; treat as L2 miss.
            l1.invalidate(line)
            return self._miss(core, line, is_write, t)

        # L1 miss: look in L2.
        t += cfg.l2_latency
        state = l2.lookup(line)
        if state is not None:
            if not is_write:
                self._l1_fill(core, line)
                return t
            if state is _M:
                self._l1_fill(core, line)
                return t
            if state is _E:
                l2.update(line, _M)
                self.directory.mark_dirty(line, core)
                self._l1_fill(core, line)
                return t
            # state is S: upgrade.
            done = self._upgrade(core, line, t)
            self._l1_fill(core, line)
            return done

        return self._miss(core, line, is_write, t)

    # -- internals -----------------------------------------------------------

    def _l1_fill(self, core: int, line: int) -> None:
        # L1 evictions are silent: write-through L1 never holds dirty data.
        self.l1s[core].insert(line, True)

    def _invalidate_private(self, core: int, line: int) -> None:
        self.l2s[core].invalidate(line)
        self.l1s[core].invalidate(line)

    def _downgrade_private(self, core: int, line: int) -> None:
        self.l2s[core].update(line, _S)

    def _inv_complete(self, start: int, bank_node: int,
                      victims: "set[int] | frozenset[int]") -> int:
        """Cycle at which the home bank has all invalidation acks."""
        worst = start
        for v in victims:
            node = self.core_nodes[v]
            t_inv = (self.ring.latency_at(start, bank_node, node)
                     + self.config.l2_latency)
            t_ack = self.ring.latency_at(t_inv, node, bank_node)
            worst = max(worst, t_ack)
        return worst

    def _upgrade(self, core: int, line: int, t: int) -> int:
        """S→M upgrade: round trip to the home bank plus invalidations."""
        bank = self.l3.bank_of(line)
        bank_node = self.bank_nodes[bank.index]
        core_node = self.core_nodes[core]
        arrival = self.ring.latency_at(t, core_node, bank_node)
        start = bank.start_access(arrival)
        t_dir = start + bank.latency
        victims = self.directory.on_upgrade(line, core)
        t_acks = self._inv_complete(t_dir, bank_node, victims)
        for v in victims:
            self._invalidate_private(v, line)
        self.l2s[core].update(line, _M)
        done = self.ring.latency_at(t_acks, bank_node, core_node)
        if self.observer is not None:
            self.observer.on_mem_access(core, line, True, t, done)
        return done

    def _miss(self, core: int, line: int, is_write: bool, t: int) -> int:
        """L2 miss: consult the home bank directory, fetch data, fill.

        The L3-or-memory leg is written inline (rather than as helper
        calls) because this is the hottest multi-step path in the whole
        simulator; every branch mirrors the protocol description in the
        module docstring.
        """
        directory = self.directory
        ring_lat = self.ring.latency_at
        bank = self.l3.bank_of(line)
        bank_node = self.bank_nodes[bank.index]
        core_node = self.core_nodes[core]

        arrival = ring_lat(t, core_node, bank_node)
        # Inline bank.start_access: reserve the (pipelined) bank.
        free = bank._free
        start = arrival if arrival >= free else free
        bank._free = start + bank.occupancy
        t_dir = start + bank.latency

        entries = directory._entries
        sole_owner = False
        if is_write:
            forward_from, was_dirty, invalidated = directory.on_getm(line, core)
        elif line in entries:
            forward_from, was_dirty = directory.on_gets(line, core)
            invalidated = _NO_VICTIMS
        else:
            # Inlined on_gets fast case: no private copies anywhere, so
            # the requester becomes sole owner and will fill in E.
            directory.stats.gets += 1
            entries[line] = DirectoryEntry(owner=core, owner_dirty=False)
            forward_from = None
            was_dirty = False
            invalidated = _NO_VICTIMS
            sole_owner = True

        if forward_from is not None:
            t_data = self._cache_to_cache(core, line, is_write, forward_from,
                                          was_dirty, bank, bank_node, t_dir)
        else:
            # Data comes from the home L3 bank, or off-chip on an L3 miss.
            if invalidated:
                t_acks = self._inv_complete(t_dir, bank_node, invalidated)
                for v in invalidated:
                    self._invalidate_private(v, line)
            else:
                t_acks = t_dir
            # Inline L3 tag probe (same counting/LRU as cache.lookup).
            c3 = bank.cache
            m3 = c3._set_mask
            s3 = c3._sets[line & m3] if m3 >= 0 else None
            if s3 is not None and line in s3:
                c3.stats.hits += 1
                s3[line] = s3.pop(line)  # LRU touch
                ready = t_acks
            elif s3 is None and c3.lookup(line) is not None:
                ready = t_acks
            else:
                if s3 is not None:
                    c3.stats.misses += 1
                # Off-chip: request phase -> DRAM bank -> bus data phase.
                bus = self.bus
                t_mem = self.dram.access(line, t_dir + bus.latency)
                t_bus = bus.data_phase(t_mem)
                # Inline L3 fill; the probe above just missed and nothing
                # since touched this set, so the line is known absent.
                if s3 is not None:
                    if len(s3) >= c3.assoc:
                        vline3 = next(iter(s3))
                        vdirty3 = s3.pop(vline3)
                        c3.stats.evictions += 1
                        s3[line] = False
                        self._l3_evict((vline3, vdirty3), t_bus)
                    else:
                        s3[line] = False
                else:
                    victim = c3.insert(line, False)
                    if victim is not None:
                        self._l3_evict(victim, t_bus)
                ready = t_bus if t_bus > t_acks else t_acks
            t_data = ring_lat(ready, bank_node, core_node)

        if is_write:
            new_state = _M
        elif sole_owner:
            new_state = _E
        else:
            entry = entries.get(line)
            new_state = _E if (entry is not None and entry.owner == core) else _S
        # Inline the L2 and L1 fills: every caller reaches _miss only
        # after both probes missed, so the line is known absent and the
        # membership check inside insert() can be skipped.
        l2 = self.l2s[core]
        m2 = l2._set_mask
        if m2 >= 0:
            s2 = l2._sets[line & m2]
            if len(s2) >= l2.assoc:
                vline2 = next(iter(s2))
                vstate2 = s2.pop(vline2)
                l2.stats.evictions += 1
                s2[line] = new_state
                self._l2_evict(core, (vline2, vstate2))
            else:
                s2[line] = new_state
        else:
            victim2 = l2.insert(line, new_state)
            if victim2 is not None:
                self._l2_evict(core, victim2)
        l1 = self.l1s[core]
        m1 = l1._set_mask
        if m1 >= 0:
            s1 = l1._sets[line & m1]
            if len(s1) >= l1.assoc:
                s1.pop(next(iter(s1)))  # L1 evictions are silent
                l1.stats.evictions += 1
            s1[line] = True
        else:
            l1.insert(line, True)
        if self.observer is not None:
            self.observer.on_mem_access(core, line, is_write, t, t_data)
        return t_data

    def _cache_to_cache(self, core: int, line: int, is_write: bool,
                        owner: int, was_dirty: bool,
                        bank: "L3Bank", bank_node: int, t_dir: int) -> int:
        """Forward the line from the current owner's L2 to the requester."""
        owner_node = self.core_nodes[owner]
        core_node = self.core_nodes[core]
        t_owner = (self.ring.latency_at(t_dir, bank_node, owner_node)
                   + self.config.l2_latency)
        t_data = self.ring.latency_at(t_owner, owner_node, core_node)
        if is_write:
            self._invalidate_private(owner, line)
        else:
            self._downgrade_private(owner, line)
            if was_dirty:
                # Dirty data also returns to the home L3 bank (clean copy).
                bank.cache.update(line, False)
        return t_data

    def _l3_install(self, bank: "L3Bank", line: int, now: int) -> None:
        """Fill a line into L3, recalling private copies of the victim."""
        victim = bank.cache.insert(line, False)
        if victim is not None:
            self._l3_evict(victim, now)

    def _l3_evict(self, victim: tuple[int, bool], now: int) -> None:
        """Recall private copies of an L3 victim; write dirty data back."""
        victim_line, victim_dirty = victim
        holders, holder_dirty = self.directory.on_recall(victim_line)
        for h in holders:
            self._invalidate_private(h, victim_line)
        if holders:
            self.stats.recalls += 1
        if victim_dirty or holder_dirty:
            # Posted writeback: consumes bus bandwidth and a DRAM bank slot
            # but does not block the requester.
            t_bus = self.bus.data_phase(now)
            self.dram.access(victim_line, t_bus)
            self.stats.l3_writebacks_to_dram += 1

    def _l2_install(self, core: int, line: int, state: MesiState) -> None:
        """Fill a line into a private L2, handling the victim."""
        victim = self.l2s[core].insert(line, state)
        if victim is not None:
            self._l2_evict(core, victim)

    def _l2_evict(self, core: int, victim: tuple[int, MesiState]) -> None:
        """Handle an L2 eviction: inclusion in L1, directory, writeback."""
        victim_line, victim_state = victim
        # Inclusion: the L1 copy goes with the L2 copy.
        self.l1s[core].invalidate(victim_line)
        dirty = self.directory.on_evict(victim_line, core, victim_state)
        if victim_state is _M or dirty:
            # Write dirty data back to the (inclusive) L3 home bank.
            self.stats.l2_writebacks += 1
            bank = self.l3.bank_of(victim_line)
            if not bank.cache.update(victim_line, True):
                # The L3 copy disappeared (recall raced the eviction in
                # event order); push the dirty line straight off-chip.
                t_bus = self.bus.data_phase(0)
                self.dram.access(victim_line, t_bus)
                self.stats.l3_writebacks_to_dram += 1
