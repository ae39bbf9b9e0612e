"""In-order, 2-wide core model (Table 1), with optional SMT contexts.

Each core hosts one or more hardware thread contexts (Table 1's machine
has one; ``MachineConfig.smt_threads`` adds the paper's Section 9
extension).  A context executes one simulated thread by pulling ops from
the thread's generator; the core is a small state machine driven by the
event queue:

* ``Compute(n)`` occupies the context ``ceil(n / issue_width)`` cycles,
  scaled by the number of non-idle contexts sharing the core's issue
  bandwidth (fine-grained SMT arbitration; a spinning context burns
  issue slots too, as spin loops do).
* ``Load``/``Store`` block the context until the memory system's
  completion cycle (each context has its own outstanding miss).
* ``Branch`` runs through the core's gshare predictor; a misprediction
  adds the pipeline-flush penalty.
* ``Lock``/``Unlock``/``BarrierWait`` are serviced by the runtime
  managers, keyed by the *agent* (thread slot).  A waiting context
  spins: it stays active for power accounting, matching the paper's
  active-cores power metric.
* ``ReadCounter`` samples a performance counter and sends the value back
  into the generator (``value = yield ReadCounter(...)``).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable

from repro.errors import ProgramError, SimulationError
from repro.isa.ops import (
    BarrierWait,
    Branch,
    Compute,
    Load,
    Lock,
    ReadCounter,
    Store,
    Unlock,
)
from repro.isa.program import ThreadProgram
from repro.sim.branch import GsharePredictor
from repro.sim.engine import slow_paths_enabled

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.machine import Machine


class CoreState(enum.Enum):
    IDLE = "idle"
    RUNNING = "running"
    SPINNING = "spinning"  # waiting on a lock or barrier (active for power)


class _Context:
    """One hardware thread context of a core."""

    __slots__ = ("index", "state", "program", "agent_id", "started_at",
                 "spin_since", "send_value", "spin_cycles", "resume",
                 "pending", "resume_pending")

    def __init__(self, index: int) -> None:
        self.index = index
        self.state = CoreState.IDLE
        self.program: ThreadProgram | None = None
        self.agent_id: int | None = None
        self.started_at = 0
        self.spin_since = 0
        self.send_value: int | None = None
        self.spin_cycles = 0
        #: Prebound "pull my next op" event callback, created once by the
        #: owning core so the hot loop never allocates per-event closures.
        self.resume: Callable[[], None] = lambda: None
        #: Op pulled ahead by the Compute-coalescing fast path, dispatched
        #: by the prebound ``resume_pending`` callback (same no-allocation
        #: rationale as ``resume``).  None means finish the thread.
        self.pending: object | None = None
        self.resume_pending: Callable[[], None] = lambda: None


class Core:
    """One processor core of the CMP (possibly multi-context)."""

    __slots__ = ("core_id", "machine", "predictor", "contexts",
                 "retired_instructions", "_coalesce", "_mem_access",
                 "_retired", "_observer")

    def __init__(self, core_id: int, machine: "Machine") -> None:
        self.core_id = core_id
        self.machine = machine
        self.predictor = GsharePredictor(machine.config.gshare_entries)
        self.contexts = [_Context(i)
                         for i in range(machine.config.smt_threads)]
        self.retired_instructions = 0
        for ctx in self.contexts:
            ctx.resume = (lambda c=ctx: self._step(c))
            ctx.resume_pending = (lambda c=ctx: self._dispatch_pending(c))
        #: Coalescing homogeneous Compute runs is valid only when the
        #: issue-width share cannot change mid-run (one context per core).
        #: Never a function of the observer: attaching one must not pick
        #: the code path.
        self._coalesce = (not slow_paths_enabled()
                          and machine.config.smt_threads == 1)
        self._mem_access = machine.memsys.make_port(core_id)
        #: The counter file's per-core retired array and the observer,
        #: bound once (both are fixed at machine construction): the
        #: per-op accounting below is two list bumps, not method calls.
        self._retired = machine.counters._retired
        self._observer = machine.observer

    # -- aggregate views -----------------------------------------------------

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
        ctx.program = program
        ctx.agent_id = agent_id
        ctx.state = CoreState.RUNNING
        ctx.started_at = at
        if self._observer is not None:
            self._observer.on_thread_start(self.core_id, agent_id, at)
        self.machine.events.schedule(at, ctx.resume)

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
        self.machine.on_thread_finished(self.core_id, agent_id)

    # -- execution loop ---------------------------------------------------------

    def _next_op(self, ctx: _Context):
        assert ctx.program is not None
        try:
            if ctx.send_value is not None:
                value, ctx.send_value = ctx.send_value, None
                return ctx.program.send(value)  # type: ignore[union-attr]
            return next(ctx.program)
        except StopIteration:
            return None

    def _step(self, ctx: _Context) -> None:
        """Pull and dispatch the context's next op (event callback)."""
        if ctx.send_value is None:
            # Inlined common case of _next_op: plain generator pull.
            try:
                op = next(ctx.program)  # type: ignore[arg-type]
            except StopIteration:
                op = None
        else:
            op = self._next_op(ctx)
        if op is None:
            self._finish_thread(ctx)
            return
        self._dispatch(ctx, op)

    def _dispatch_pending(self, ctx: _Context) -> None:
        """Dispatch the op pulled ahead by the coalescing fast path."""
        op = ctx.pending
        if op is None:
            self._finish_thread(ctx)
            return
        ctx.pending = None
        self._dispatch(ctx, op)

    def _dispatch(self, ctx: _Context, op) -> None:
        """Execute one already-pulled op at the current cycle."""
        machine = self.machine
        events = machine.events
        now = events.now
        obs = self._observer

        if type(op) is Compute:
            n = op.instructions
            if self._coalesce:
                # Pull ahead through the whole homogeneous Compute run
                # and schedule its completion as a single event.  Cycles
                # are summed per op (ceil each), the share factor is a
                # constant 1 (one context per core), and nothing outside
                # this core can observe the intermediate cycles, so the
                # schedule equals stepping op by op up to the order of
                # same-cycle events on other cores.
                width = machine.config.issue_width
                cycles = -(-n // width) if n else 0
                nxt = self._next_op(ctx)
                while type(nxt) is Compute:
                    extra = nxt.instructions
                    n += extra
                    if extra:
                        cycles += -(-extra // width)
                    nxt = self._next_op(ctx)
                self.retired_instructions += n
                self._retired[self.core_id] += n
                if cycles:
                    if obs is not None and ctx.agent_id is not None:
                        obs.on_compute(self.core_id, ctx.agent_id,
                                       now, now + cycles)
                    ctx.pending = nxt
                    events.schedule(now + cycles, ctx.resume_pending)
                elif nxt is None:
                    self._finish_thread(ctx)
                else:
                    self._dispatch(ctx, nxt)
                return
            share = max(1, self._active_contexts())
            cycles = (-(-n // machine.config.issue_width)) * share if n else 0
            self.retired_instructions += n
            self._retired[self.core_id] += n
            if cycles:
                if obs is not None and ctx.agent_id is not None:
                    obs.on_compute(self.core_id, ctx.agent_id,
                                   now, now + cycles)
                events.schedule(now + cycles, ctx.resume)
            else:
                self._step(ctx)
            return

        if type(op) is Load or type(op) is Store:
            is_write = type(op) is Store
            if obs is not None and ctx.agent_id is not None:
                obs.on_access(ctx.agent_id, op.addr, is_write, now)
            done = self._mem_access(op.addr, is_write, now)
            self.retired_instructions += 1
            self._retired[self.core_id] += 1
            events.schedule(done, ctx.resume)
            return

        if type(op) is Branch:
            correct = self.predictor.update(op.pc, op.taken)
            penalty = (0 if correct
                       else machine.config.branch_misprediction_penalty)
            self.retired_instructions += 1
            self._retired[self.core_id] += 1
            events.schedule(now + 1 + penalty, ctx.resume)
            return

        if type(op) is Lock:
            assert ctx.agent_id is not None
            if obs is not None:
                obs.on_lock_request(op.lock_id, ctx.agent_id, now)
            grant = machine.locks.acquire(op.lock_id, ctx.agent_id, now)
            if grant is None:
                self._begin_spin(ctx, now)
            else:
                events.schedule(grant, ctx.resume)
            return

        if type(op) is Unlock:
            assert ctx.agent_id is not None
            if obs is not None:
                obs.on_unlock_request(op.lock_id, ctx.agent_id, now)
            handoff = machine.locks.release(op.lock_id, ctx.agent_id, now)
            if handoff is not None:
                next_agent, grant = handoff
                machine.wake_agent(next_agent, grant)
            events.schedule(now + 1, ctx.resume)
            return

        if type(op) is BarrierWait:
            assert ctx.agent_id is not None
            team = machine.team_size_of(ctx.agent_id)
            releases = machine.barriers.arrive(
                op.barrier_id, ctx.agent_id, team, now)
            if releases is None:
                self._begin_spin(ctx, now)
                return
            for agent_id, when in releases:
                if agent_id == ctx.agent_id:
                    events.schedule(when, ctx.resume)
                else:
                    machine.wake_agent(agent_id, when)
            return

        if type(op) is ReadCounter:
            if obs is not None and ctx.agent_id is not None:
                obs.on_read_counter(ctx.agent_id, op.kind, now)
            ctx.send_value = machine.counters.read(op.kind, self.core_id)
            # Reading a counter is a cheap serializing instruction.
            events.schedule(now + 1, ctx.resume)
            return

        raise ProgramError(f"core {self.core_id}: unknown op {op!r}")

    # -- spin/wake ------------------------------------------------------------

    def _begin_spin(self, ctx: _Context, now: int) -> None:
        ctx.state = CoreState.SPINNING
        ctx.spin_since = now

    def granted(self, context_index: int, when: int) -> None:
        """A lock grant or barrier release wakes a spinning context."""
        ctx = self.contexts[context_index]
        if ctx.state is not CoreState.SPINNING:
            raise SimulationError(
                f"core {self.core_id} ctx {context_index} woken while "
                f"{ctx.state.value}")
        ctx.state = CoreState.RUNNING
        ctx.spin_cycles += max(0, when - ctx.spin_since)
        self.machine.events.schedule(when, ctx.resume)
