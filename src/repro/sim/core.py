"""In-order, 2-wide core model (Table 1), with optional SMT contexts.

Each core hosts one or more hardware thread contexts (Table 1's machine
has one; ``MachineConfig.smt_threads`` adds the paper's Section 9
extension).  A context runs one simulated thread by pulling ops from its
generator, driven by one prebound *step* (:meth:`Core._make_step`), the
only callback the core ever puts on the event queue.  A core is built as
it is used: the machine makes it (its contexts) when it places
the first thread there, and :meth:`Core.start_thread` its memory port
(with its L1 and L2) and a context's step at their first thread, so a
run pays for the cores it touches, not for all of Table 1.  What each op
costs:

* ``Compute(n)`` occupies the context ``ceil(n / issue_width)`` cycles,
  scaled by the number of non-idle contexts sharing the core's issue
  bandwidth (fine-grained SMT arbitration; a spinning context burns
  issue slots too, as spin loops do).
* ``Load``/``Store`` block the context until the memory system's
  completion cycle (each context has its own outstanding miss).
* ``Lock``/``Unlock``/``BarrierWait`` are serviced by the runtime
  managers, keyed by the *agent* (thread slot).  A waiting context
  spins: it stays active for power accounting, matching the paper's
  active-cores power metric.  The lock handoff or barrier release that
  ends the wait wakes it: ``wake`` finds the context in the machine's
  one agent→context table, marks it running, books its spin cycles and
  pushes its step straight onto the heap.
* ``ReadCounter`` samples a performance counter and sends the value back
  into the generator (``value = yield ReadCounter(...)``).

The step serves every op kind in its own body and pushes its own next
event — as ``ctx.step``, the same function, never by its own name: a
closure that named itself would be a reference cycle nothing can cut,
whereas ``Machine.close`` resets ``ctx.step``.  Two shortcuts, each
chosen by a slot of the core (``_coalesce``, ``_run_ahead``):

* a homogeneous run of ``Compute`` ops is pulled in one go and costs one
  event (single-context cores only: the issue share cannot change
  mid-run), exact up to the order of same-cycle events on other cores;
* *run-ahead*: when the event the step would push is strictly earlier
  than every pending one, the queue would hand it straight back, so the
  step advances the clock itself and keeps going (see
  ``repro.sim.engine``).  A lone thread never touches the queue.

Those two slots and ``_mem_access``, the memory port, are read when a
context's step is built, at its first :meth:`Core.start_thread`: set on
a placed core before that, they build the *same* step without the
shortcuts or over another memory walk (``tests/spec_memsys.py`` steps a
machine op by op on the walk's specification this way).
"""

from __future__ import annotations

import enum
from heapq import heappush
from typing import TYPE_CHECKING, Callable

from repro.errors import ProgramError, SimulationError
from repro.isa.ops import (
    BarrierWait,
    Compute,
    Load,
    Lock,
    ReadCounter,
    Store,
    Unlock,
)
from repro.isa.program import ThreadProgram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.machine import Machine
    from repro.sim.memsys import AccessPort


class CoreState(enum.Enum):
    IDLE = "idle"
    RUNNING = "running"
    SPINNING = "spinning"  # waiting on a lock or barrier (active for power)


class _Context:
    """One hardware thread context of a core."""

    __slots__ = ("state", "program", "agent_id", "spin_since",
                 "spin_cycles", "step", "pending")

    def __init__(self) -> None:
        self.state = CoreState.IDLE
        self.program: ThreadProgram | None = None
        self.agent_id: int | None = None
        self.spin_since = 0
        self.spin_cycles = 0
        #: Prebound event callback (:meth:`Core._make_step`), built once
        #: by the owning core when the context's first thread starts, so
        #: the hot loop never allocates per-event closures.
        self.step: Callable[[], None] | None = None
        #: Op pulled past a Compute run's end or by a ReadCounter's
        #: value, for the step to execute when the event fires.
        self.pending: object | None = None


class Core:
    """One processor core of the CMP (possibly multi-context)."""

    __slots__ = ("core_id", "machine", "contexts",
                 "_coalesce", "_run_ahead", "_mem_access", "_counters",
                 "_observer")

    def __init__(self, core_id: int, machine: "Machine") -> None:
        self.core_id = core_id
        self.machine = machine
        self.contexts = [_Context() for _ in range(machine.config.smt_threads)]
        #: Neither shortcut is ever a function of the observer:
        #: attaching one must not pick the code path.  Coalescing
        #: Compute runs is valid only when the issue-width share cannot
        #: change mid-run (one context per core).
        self._run_ahead = True
        self._coalesce = machine.config.smt_threads == 1
        #: The core's memory port (shared by its SMT contexts), built by
        #: the first :meth:`start_thread` here.
        self._mem_access: AccessPort | None = None
        #: The counter file (the step bumps its per-core retired
        #: Compute instructions) and the observer: fixed with the machine.
        self._counters = machine.counters
        self._observer = machine.observer

    # -- aggregate views -----------------------------------------------------

    @property
    def retired_instructions(self) -> int:
        return self._counters.retired(self.core_id)

    @property
    def is_idle(self) -> bool:
        return all(ctx.state is CoreState.IDLE for ctx in self.contexts)

    @property
    def spin_cycles(self) -> int:
        return sum(ctx.spin_cycles for ctx in self.contexts)

    def _active_contexts(self) -> int:
        return sum(1 for ctx in self.contexts
                   if ctx.state is not CoreState.IDLE)

    # -- thread lifecycle -----------------------------------------------------

    def start_thread(self, program: ThreadProgram, agent_id: int,
                     at: int, context_index: int = 0) -> None:
        """Begin executing ``program`` on a context at cycle ``at``."""
        ctx = self.contexts[context_index]
        if ctx.state is not CoreState.IDLE:
            raise SimulationError(
                f"core {self.core_id} context {context_index} is busy")
        if ctx.step is None:
            if self._mem_access is None:
                self._mem_access = self.machine.memsys.make_port(self.core_id)
            ctx.step = self._make_step(ctx)
        ctx.program = program
        ctx.agent_id = agent_id
        ctx.state = CoreState.RUNNING
        if self._observer is not None:
            self._observer.on_thread_start(self.core_id, agent_id, at)
        self.machine.events.schedule(at, ctx.step)

    def _finish_thread(self, ctx: _Context) -> None:
        agent_id = ctx.agent_id
        ctx.program = None
        ctx.agent_id = None
        ctx.state = CoreState.IDLE
        if agent_id is None:  # pragma: no cover - defensive
            raise SimulationError("finished a thread that never started")
        if self._observer is not None:
            self._observer.on_thread_exit(self.core_id, agent_id,
                                          self.machine.events.now)
        self.machine._threads_running -= 1

    # -- execution loop ---------------------------------------------------------

    def _make_step(self, ctx: _Context) -> Callable[[], None]:
        """Build ``ctx``'s step: run ops from the current cycle until the
        context has to wait for the queue (or blocks, or finishes)."""
        machine = self.machine
        events = machine.events
        heap = events.heap
        width = machine.config.issue_width
        core_id = self.core_id
        retired = self._counters._retired
        obs = self._observer
        coalesce, run_ahead = self._coalesce, self._run_ahead
        mem_access = self._mem_access
        active_contexts = self._active_contexts
        finish = self._finish_thread
        acquire, release = machine.locks.acquire, machine.locks.release
        arrive = machine.barriers.arrive
        read_counter = machine.counters.read
        placement = machine._placement
        slots = machine._agent_contexts
        spinning, running = CoreState.SPINNING, CoreState.RUNNING

        def wake(agent: int, when: int) -> None:
            # A lock grant or barrier release wakes a spinning context:
            # its step goes straight onto the heap.
            other = slots[agent]
            if other.state is not spinning:
                core, index = placement[agent]
                raise SimulationError(
                    f"core {core.core_id} ctx {index} woken while "
                    f"{other.state.value}")
            if when < events.now:
                events.schedule(when, other.step)  # raises: in the past
            other.state = running
            # when >= now >= spin_since: the spin is never negative.
            other.spin_cycles += when - other.spin_since
            seq = events.seq
            events.seq = seq + 1
            heappush(heap, (when, seq, other.step))

        def step() -> None:
            now = events.now
            op, ctx.pending = ctx.pending, None
            while True:
                if op is None:
                    try:
                        op = next(ctx.program)  # type: ignore[arg-type]
                    except StopIteration:
                        finish(ctx)
                        return
                kind = type(op)
                if kind is Load or kind is Store:
                    is_write = kind is Store
                    if obs is not None and ctx.agent_id is not None:
                        obs.on_access(ctx.agent_id, op.addr, is_write, now)
                    when = mem_access(op.addr, is_write, now)
                    op = None
                elif kind is Compute:
                    n = op.instructions
                    cycles = -(-n // width)
                    if coalesce:
                        # Pull through the whole homogeneous run: cycles
                        # are summed per op (ceil each), the share is a
                        # constant 1, and nothing outside this core can
                        # observe the intermediate cycles.  A program
                        # that ends in the run is pulled once more when
                        # the cycles are over (it raises StopIteration
                        # again).
                        program = ctx.program
                        try:
                            op = next(program)  # type: ignore[arg-type]
                            while type(op) is Compute:
                                n += op.instructions
                                cycles += -(-op.instructions // width)
                                op = next(program)  # type: ignore[arg-type]
                        except StopIteration:
                            op = None
                    else:
                        cycles *= active_contexts()
                        op = None
                    retired[core_id] += n
                    if not cycles:
                        continue
                    when = now + cycles
                    if obs is not None and ctx.agent_id is not None:
                        obs.on_compute(core_id, ctx.agent_id, now, when)
                elif kind is Lock:
                    if obs is not None:
                        obs.on_lock_request(op.lock_id, ctx.agent_id, now)
                    when = acquire(op.lock_id, ctx.agent_id, now)
                    if when is None:
                        # Spin until the releasing thread's wake().
                        ctx.state = spinning
                        ctx.spin_since = now
                        return
                    op = None
                elif kind is Unlock:
                    if obs is not None:
                        obs.on_unlock_request(op.lock_id, ctx.agent_id, now)
                    handoff = release(op.lock_id, ctx.agent_id, now)
                    if handoff is not None:
                        wake(*handoff)
                    when = now + 1
                    op = None
                elif kind is BarrierWait:
                    team = machine._team_size
                    if team <= 0:
                        raise SimulationError("no parallel region is active")
                    agent = ctx.agent_id
                    releases = arrive(op.barrier_id, agent, team, now)
                    if releases is None:
                        ctx.state = spinning
                        ctx.spin_since = now
                        return
                    # The last arriver is the last release, so its own
                    # event (pushed below) still follows the others'.
                    for other, release_at in releases:
                        if other == agent:
                            when = release_at
                        else:
                            wake(other, release_at)
                    op = None
                elif kind is ReadCounter:
                    if obs is not None:
                        obs.on_read_counter(ctx.agent_id, op.kind, now)
                    # A cheap serializing instruction: the next op waits
                    # a cycle (a program that ends is pulled once more).
                    try:
                        op = ctx.program.send(  # type: ignore[union-attr]
                            read_counter(op.kind, core_id))
                    except StopIteration:
                        op = None
                    when = now + 1
                else:
                    raise ProgramError(f"core {core_id}: unknown op {op!r}")

                if when < now:
                    events.schedule(when, ctx.step)  # raises: in the past
                if (run_ahead and events.run_ahead
                        and (not heap or when < heap[0][0])):
                    # Strictly the earliest event: the queue would pop it
                    # next, so be that pop.
                    events.now = now = when
                    continue
                ctx.pending = op
                seq = events.seq
                events.seq = seq + 1
                heappush(heap, (when, seq, ctx.step))
                return

        return step
