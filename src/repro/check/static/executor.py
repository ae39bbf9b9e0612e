"""The abstract executor: drive thread programs without a simulator.

A thread program is a generator of ops that may also *receive* counter
values back after yielding a :class:`~repro.isa.ops.ReadCounter`.  The
abstract executor drives any :class:`~repro.isa.program.ProgramFactory`
exactly the way a core would — ``next`` / ``send`` — but instead of
simulating, it advances a deterministic abstract clock and materializes
a bounded :class:`~repro.check.static.summary.ThreadSummary`.

The abstract clock doubles as the stubbed counter file: a program that
reads ``CYCLES`` or ``BUS_BUSY_CYCLES`` (FDT's instrumented training
loop does) receives monotone, plausibly-scaled values, so any factory
the runtime could execute can also be analyzed.  The cost model is
deliberately simple and documented here in one place:

* ``Compute(n)`` retires at the issue width (``ceil(n / issue_width)``
  cycles, Table 1's 2-wide core);
* the *first* access a thread makes to a cache line is charged a cold
  miss (L3 + bus + line transfer + DRAM row hit) and occupies the bus
  for one line transfer; repeat accesses are charged the L1 latency —
  a thread-local stream classification, not a cache simulation;
* every other op costs one cycle.

These estimates feed the static SAT/BAT priors
(:mod:`repro.check.static.profile`); they are priors, not predictions —
the documented tolerance lives with the passes that consume them.
"""

from __future__ import annotations

from typing import Iterator

from repro.check.static.summary import (
    CounterReadSite,
    LockFault,
    LockRegion,
    TeamSummary,
    ThreadSummary,
)
from repro.isa.ops import (
    BarrierWait,
    Compute,
    CounterKind,
    Load,
    Lock,
    Op,
    ReadCounter,
    Store,
    Unlock,
)
from repro.isa.program import ProgramFactory
from repro.sim.addrmap import AddressMap
from repro.sim.config import MachineConfig

#: Per-thread op budget; a thread whose program yields more ops is
#: summarized up to the budget and marked ``truncated`` (passes that
#: need the complete stream — barrier proofs, held-at-exit — are
#: suppressed for truncated threads rather than reported unsoundly).
MAX_OPS_PER_THREAD = 4_000_000


class AbstractExecutor:
    """Summarizes thread programs under the abstract cost model."""

    def __init__(self, machine: MachineConfig | None = None) -> None:
        self.machine = machine or MachineConfig.asplos08_baseline()
        m = self.machine
        self._issue = max(1, m.issue_width)
        self._line_shift = AddressMap.of(m).offset_bits
        self._hit_cycles = max(1, m.l1_latency)
        self._miss_cycles = (m.l3_latency + m.bus_latency
                             + m.bus_cycles_per_line + m.dram_row_hit_latency)
        self._bus_line_cycles = m.bus_cycles_per_line

    # -- public API --------------------------------------------------------

    def run_team(self, kernel_name: str, factories: list[ProgramFactory],
                 num_threads: int | None = None) -> TeamSummary:
        """Summarize one team: ``factories[i]`` becomes thread ``i``."""
        team = num_threads if num_threads is not None else len(factories)
        threads = [self.run_thread(factory(tid, team), tid, team)
                   for tid, factory in enumerate(factories)]
        return TeamSummary(kernel=kernel_name, num_threads=team,
                           threads=threads)

    def run_thread(self, program: Iterator[Op], thread_id: int,
                   num_threads: int) -> ThreadSummary:
        """Drive one thread program to exhaustion (or the op budget)."""
        s = ThreadSummary(thread_id=thread_id, num_threads=num_threads)
        budget = MAX_OPS_PER_THREAD
        held: list[int] = []
        open_regions: list[LockRegion] = []
        send = getattr(program, "send", None)
        reply: int | None = None

        while True:
            try:
                if reply is not None and send is not None:
                    op = send(reply)
                else:
                    op = next(program)
            except StopIteration:
                break
            reply = None
            if s.ops >= budget:
                s.truncated = True
                close = getattr(program, "close", None)
                if close is not None:
                    close()
                break
            s.ops += 1
            cost = self._step(op, s, held, open_regions)
            s.est_cycles += cost
            if held:
                s.est_cs_cycles += cost
            if type(op) is ReadCounter:
                reply = self._counter_value(op.kind, s)

        if held and not s.truncated:
            s.lock_faults.append(LockFault(
                kind="static-held-at-exit", thread_id=thread_id,
                lock_id=held[-1], index=-1, held=tuple(held)))
        return s

    # -- one op ------------------------------------------------------------

    def _step(self, op: Op, s: ThreadSummary, held: list[int],
              open_regions: list[LockRegion]) -> int:
        """Update the summary for one op; return its abstract cycle cost."""
        if type(op) is Compute:
            n = op.instructions
            s.computes += 1
            if n == 0:
                s.zero_computes += 1
            s.instructions += n
            if held:
                s.cs_instructions += n
                for region in open_regions:
                    region.instructions += n
            cost = -(-n // self._issue)  # ceil
            for region in open_regions:
                region.est_cycles += cost
            return cost
        if type(op) is Load or type(op) is Store:
            addr = op.addr
            line = addr >> self._line_shift
            counts = s.line_accesses.get(line)
            if counts is None:
                counts = s.line_accesses[line] = [0, 0]
                cost = self._miss_cycles
                s.est_bus_busy += self._bus_line_cycles
            else:
                cost = self._hit_cycles
            s.instructions += 1
            if type(op) is Load:
                s.loads += 1
                counts[0] += 1
                if held:
                    for region in open_regions:
                        region.loads += 1
            else:
                s.stores += 1
                counts[1] += 1
                if held:
                    for region in open_regions:
                        region.stores += 1
            if held:
                s.cs_instructions += 1
            for region in open_regions:
                region.est_cycles += cost
            return cost
        if type(op) is Lock:
            lock_id = op.lock_id
            s.instructions += 1
            s.lock_acquires += 1
            if lock_id in held:
                s.lock_faults.append(LockFault(
                    kind="static-double-acquire", thread_id=s.thread_id,
                    lock_id=lock_id, index=s.ops - 1, held=tuple(held)))
            for h in held:
                if h != lock_id:
                    s.lock_order_edges.setdefault((h, lock_id), s.ops - 1)
            for region in open_regions:
                region.inner_locks += 1
            region = LockRegion(lock_id=lock_id, start_index=s.ops - 1,
                                depth=len(held))
            s.lock_regions.append(region)
            open_regions.append(region)
            held.append(lock_id)
            return 1
        if type(op) is Unlock:
            lock_id = op.lock_id
            s.instructions += 1
            s.lock_releases += 1
            if not held:
                s.lock_faults.append(LockFault(
                    kind="static-unlock-of-unheld", thread_id=s.thread_id,
                    lock_id=lock_id, index=s.ops - 1, held=()))
            elif held[-1] == lock_id:
                held.pop()
                open_regions.pop().closed = True
            elif lock_id in held:
                s.lock_faults.append(LockFault(
                    kind="static-unlock-mismatch", thread_id=s.thread_id,
                    lock_id=lock_id, index=s.ops - 1, held=tuple(held)))
                # Recover by releasing the named lock so later pairing
                # stays meaningful (one fault, not a cascade).
                pos = held.index(lock_id)
                held.pop(pos)
                open_regions.pop(pos).closed = True
            else:
                s.lock_faults.append(LockFault(
                    kind="static-unlock-of-unheld", thread_id=s.thread_id,
                    lock_id=lock_id, index=s.ops - 1, held=tuple(held)))
            return 1
        if type(op) is BarrierWait:
            s.instructions += 1
            s.barrier_waits += 1
            s.barrier_sequence.append(op.barrier_id)
            return 1
        if type(op) is ReadCounter:
            s.instructions += 1
            s.counter_reads += 1
            if held:
                s.counter_in_cs.append(CounterReadSite(
                    thread_id=s.thread_id,
                    counter=op.kind.value,
                    index=s.ops - 1, held=tuple(held)))
                for region in open_regions:
                    region.counter_reads += 1
            return 1
        raise TypeError(f"not a valid instruction: {op!r}")

    # -- stubbed counters --------------------------------------------------

    def _counter_value(self, kind: CounterKind, s: ThreadSummary) -> int:
        """The value a ReadCounter receives under the abstract clock."""
        if kind is CounterKind.CYCLES:
            return s.est_cycles
        if kind is CounterKind.BUS_BUSY_CYCLES:
            return s.est_bus_busy
        if kind is CounterKind.RETIRED_OPS:
            return s.instructions
        return s.distinct_lines  # L3_MISSES analogue: cold lines so far
