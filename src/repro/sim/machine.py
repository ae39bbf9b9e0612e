"""The assembled CMP: cores, caches, ring, L3, bus, DRAM, runtime managers.

:class:`Machine` is the top-level simulator object.  Its central primitive
is :meth:`run_parallel`, which executes one parallel region — a team of
thread programs pinned to hardware thread slots — to completion and
advances simulated time.  Applications are sequences of serial and
parallel regions; caches, DRAM row buffers and the clock persist across
regions, so a kernel's second invocation sees a warm machine just like
on real hardware.

Construction costs what a run touches: a cache set is allocated by its
first fill, and a core (contexts, L1 and L2, port, steps) by its first
thread.  A fresh machine is the shared parts and empty
``cores`` / ``memsys.l1s`` / ``l2s`` lists; a region's threads take the
lowest core ids first, so the built cores are cores ``0 .. len - 1``.

Lifetime: whoever builds a machine closes it (:meth:`Machine.close`, or
``with Machine(config) as machine:``).  Closing cuts the references that
point back up the object tree, so a finished machine is freed by
refcount the moment its owner lets go, not at the cycle collector's next
full pass; it stays readable (``now``, ``snapshot()``, every counter)
but can no longer run.

Thread placement: slot ``s`` runs on core ``s % num_cores``, SMT context
``s // num_cores`` — teams no larger than the core count get one thread
per core (the paper's configuration); larger teams (Section 9's SMT
extension) double up contexts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError, DeadlockError, SimulationError
from repro.isa.program import ProgramFactory
from repro.runtime.barriers import BarrierManager
from repro.runtime.locks import LockManager
from repro.sim.config import MachineConfig
from repro.sim.core import Core, _Context
from repro.sim.counters import CounterFile
from repro.sim.engine import EventQueue
from repro.sim.memsys import MemorySystem
from repro.sim.observer import SimObserver
from repro.sim.ring import Ring
from repro.sim.stats import RunResult, Snapshot


@dataclass(frozen=True, slots=True)
class RegionResult:
    """Timing of one parallel region."""

    start_cycle: int
    end_cycle: int
    num_threads: int

    @property
    def cycles(self) -> int:
        return self.end_cycle - self.start_cycle


def _place_nodes(num_cores: int, num_banks: int) -> tuple[list[int], list[int]]:
    """Interleave L3 bank stations evenly among core stations on the ring."""
    total = num_cores + num_banks
    bank_slots = {((i + 1) * total) // num_banks - 1 for i in range(num_banks)}
    return ([slot for slot in range(total) if slot not in bank_slots],
            sorted(bank_slots))


class Machine:
    """A simulated CMP built from a :class:`MachineConfig`."""

    __slots__ = ("config", "events", "ring", "memsys", "counters",
                 "observer", "locks", "barriers", "cores", "_placement",
                 "_agent_contexts", "_team_size", "_threads_running",
                 "_active_core_cycles", "_core_first_start", "_closed")

    def __init__(self, config: MachineConfig | None = None,
                 observer: SimObserver | None = None) -> None:
        self.config = config or MachineConfig.asplos08_baseline()
        self.events = EventQueue()
        #: The single slot every hook site reports to.
        self.observer = observer
        core_nodes, bank_nodes = _place_nodes(self.config.num_cores,
                                              self.config.l3_banks)
        self.ring = Ring(self.config.num_cores + self.config.l3_banks,
                         self.config.ring_hop_latency,
                         self.config.ring_link_occupancy)
        self.memsys = MemorySystem(self.config, self.ring, core_nodes,
                                   bank_nodes, observer=self.observer)
        self.counters = CounterFile(self.events, self.memsys)
        # Locks and barriers are keyed by *agent* (thread slot); an
        # agent's ring node is its hosting core's node.
        agent_nodes = [core_nodes[s % self.config.num_cores]
                       for s in range(self.config.num_thread_slots)]
        self.locks = LockManager(self.config, self.ring, agent_nodes,
                                 observer=self.observer)
        self.barriers = BarrierManager(self.config, self.ring, agent_nodes,
                                       observer=self.observer)
        #: The cores built so far (:meth:`_place`), by core id.
        self.cores: list[Core] = []
        #: Per slot placed so far: (hosting core, SMT context), and the
        #: context itself (the one table every step's ``wake`` reads).
        self._placement: list[tuple[Core, int]] = []
        self._agent_contexts: list[_Context] = []
        self._team_size = 0
        self._threads_running = 0
        self._active_core_cycles = 0
        self._core_first_start: dict[int, int] = {}
        self._closed = False
        if self.observer is not None:
            self.observer.on_attach(self)

    # -- end of life -----------------------------------------------------------

    def close(self) -> None:
        """End the machine's life so plain refcounting frees it.

        Cuts every reference that points back up the tree — a context
        that ran a thread holds its step, whose closure holds the
        context and its core; a built core's ``machine``; queued steps
        of an aborted run; the sampler and an observer that kept the
        machine — so the caches and directory go the moment the last
        outside reference does instead of waiting for the cycle
        collector.  Idempotent.  A closed machine cannot run, but
        :attr:`now`, :meth:`snapshot` and every counter stay readable.
        """
        if self._closed:
            return
        self._closed = True
        for core in self.cores:
            for ctx in core.contexts:
                ctx.step = None
            core._mem_access = None
            del core.machine
        self.events.heap.clear()
        self.events.sampler = None
        if self.observer is not None:
            self.observer.on_detach()

    def __enter__(self) -> "Machine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- placement ------------------------------------------------------------

    def core_of_agent(self, agent_id: int) -> int:
        if self.config.smt_placement == "compact":
            return agent_id // self.config.smt_threads
        return agent_id % self.config.num_cores

    def context_of_agent(self, agent_id: int) -> int:
        if self.config.smt_placement == "compact":
            return agent_id % self.config.smt_threads
        return agent_id // self.config.num_cores

    def _place(self, slots: int) -> None:
        """Place the slots below ``slots`` not placed yet, building each
        hosting core at the first slot it gets."""
        cores = self.cores
        for slot in range(len(self._placement), slots):
            core_id = self.core_of_agent(slot)
            while len(cores) <= core_id:
                cores.append(Core(len(cores), self))
            core, index = cores[core_id], self.context_of_agent(slot)
            self._placement.append((core, index))
            self._agent_contexts.append(core.contexts[index])

    # -- execution -----------------------------------------------------------

    def run_parallel(self, factories: list[ProgramFactory],
                     spawn_overhead: bool = True) -> RegionResult:
        """Run one parallel region: ``factories[i]`` becomes thread ``i``.

        Thread ``i`` is pinned to slot ``i`` (core ``i % num_cores``).
        Thread 0 is the master and starts immediately; workers start
        after the spawn overhead.  The region ends when every thread's
        program is exhausted; the join overhead is charged to the master.

        Power accounting follows the paper's Section 3.1 metric: a core
        is active from its first thread's start to the region's end
        (threads that finish early spin at the region's implicit
        barrier), and idle cores burn nothing.

        Raises:
            ConfigError: more threads than hardware thread slots.
            DeadlockError: the event queue drained with threads blocked.
            SimulationError: the machine is closed.
        """
        if self._closed:
            raise SimulationError("the machine is closed")
        num_threads = len(factories)
        if num_threads < 1:
            raise ConfigError("a parallel region needs at least one thread")
        if num_threads > self.config.num_thread_slots:
            raise ConfigError(
                f"{num_threads} threads exceed "
                f"{self.config.num_thread_slots} hardware thread slots")
        if self._threads_running:
            raise SimulationError("a parallel region is already running")
        self._place(num_threads)

        start = self.events.now
        if self.observer is not None:
            self.observer.on_region_begin(num_threads, start)
        self._team_size = num_threads
        self._threads_running = num_threads
        self._core_first_start.clear()
        spawn = self.config.thread_spawn_cycles if spawn_overhead else 0
        for i, factory in enumerate(factories):
            begin = start if i == 0 else start + spawn
            core, context_index = self._placement[i]
            core.start_thread(factory(i, num_threads), i, begin,
                              context_index=context_index)
            first = self._core_first_start.get(core.core_id)
            if first is None or begin < first:
                self._core_first_start[core.core_id] = begin

        self.events.run()
        if self._threads_running:
            blocked = [c.core_id for c in self.cores if not c.is_idle]
            raise DeadlockError(
                f"event queue drained with threads blocked on cores {blocked}; "
                f"locks held: {self.locks.any_held()}, "
                f"barrier waiters: {self.barriers.any_waiting()}")
        self._team_size = 0

        end = self.events.now
        if spawn_overhead and num_threads > 1:
            end += self.config.thread_join_cycles
            self.events.now = end  # master burns the join overhead
        # Each participating core is active for the whole region (early
        # finishers spin at the implicit join barrier).
        for _core_id, first_start in self._core_first_start.items():
            self._active_core_cycles += end - first_start
        self._core_first_start.clear()
        if self.observer is not None:
            self.observer.on_region_end(end)
        return RegionResult(start_cycle=start, end_cycle=end,
                            num_threads=num_threads)

    def run_serial(self, factory: ProgramFactory) -> RegionResult:
        """Run a single-threaded region on core 0 with no spawn overhead."""
        return self.run_parallel([factory], spawn_overhead=False)

    # -- metrics ---------------------------------------------------------------

    @property
    def now(self) -> int:
        return self.events.now

    def snapshot(self) -> Snapshot:
        """Capture all counters (cheap; take between regions)."""
        bus = self.memsys.bus.stats
        return Snapshot(
            cycles=self.events.now,
            busy_core_cycles=self._active_core_cycles,
            spin_core_cycles=sum(c.spin_cycles for c in self.cores),
            bus_busy_cycles=bus.busy_cycles,
            bus_transfers=bus.transfers,
            l3_misses=self.memsys.l3.misses,
            l3_accesses=self.memsys.l3.accesses,
            retired_instructions=sum(map(self.counters.retired,
                                         range(self.config.num_cores))),
            lock_acquisitions=self.locks.stats.acquisitions,
        )

    def result_since(self, start: Snapshot) -> RunResult:
        """Run metrics from ``start`` to now."""
        return RunResult.between(start, self.snapshot())
