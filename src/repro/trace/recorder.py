"""The trace recorder: one observer turning machine events into a Trace.

Hand a :class:`TraceRecorder` to ``Machine(config, observer=...)``
and read its :attr:`~TraceRecorder.data` afterwards.  It is a
:class:`~repro.sim.observer.SimObserver` plug-in plus the event queue's
``on_advance`` sampling callback, and owns the in-flight state the
timeline needs (open lock-wait / critical-section / barrier-wait
intervals keyed by agent).

The recorder is a pure observer: it reads machine counters and appends
to its :class:`~repro.trace.data.Trace`, never schedules events, and
never mutates machine state — simulated cycle counts are bit-identical
with a recorder attached or not (``tests/test_parity.py``).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import TYPE_CHECKING

from repro.sim.observer import SimObserver
from repro.trace.data import (
    STATE_BARRIER_WAIT,
    STATE_COMPUTE,
    STATE_CRITICAL_SECTION,
    STATE_LOCK_SPIN,
    STATE_MEMORY_STALL,
    CounterSample,
    Mark,
    Span,
    Trace,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.fdt.estimators import Decision
    from repro.fdt.training import TrainingSample
    from repro.sim.machine import Machine

#: Cycles between counter samples.  Read when a recorder is built.
SAMPLE_INTERVAL = 1000
#: Memory stalls shorter than this many cycles are not recorded (keeps
#: L2-miss noise out of the timeline).  Read at call time.
MIN_MEM_STALL_CYCLES = 8
#: Cap on recorded timeline spans and on counter samples (each bounded
#: separately; further ones are counted but dropped).  Read at call time.
MAX_EVENTS = 1_000_000


class TraceRecorder(SimObserver):
    """Records timeline spans, a counter sample every
    :data:`SAMPLE_INTERVAL` cycles, and FDT decisions."""

    def __init__(self) -> None:
        self.data = Trace(sample_interval=SAMPLE_INTERVAL, num_cores=0)
        #: Next counter-sample boundary cycle.
        self._next_sample = SAMPLE_INTERVAL
        #: Open lock-wait intervals: (agent, lock_id) -> spin start.
        self._lock_waits: dict[tuple[int, int], int] = {}
        #: Open critical sections: (agent, lock_id) -> grant cycle.
        self._held_since: dict[tuple[int, int], int] = {}
        #: Open barrier waits: (agent, barrier_id) -> arrival cycle.
        self._barrier_waits: dict[tuple[int, int], int] = {}

    def on_attach(self, machine: "Machine") -> None:
        self.machine = machine
        self.data.num_cores = machine.config.num_cores
        machine.events.sampler = self

    def on_detach(self) -> None:
        del self.machine

    # -- span / mark plumbing ------------------------------------------------

    def _core_of(self, agent: int) -> int:
        return self.machine.core_of_agent(agent)

    def _add_span(self, core: int, agent: int, state: str, start: int,
                  end: int, detail: str = "") -> None:
        if end <= start:
            return
        data = self.data
        if end > data.final_cycle:
            data.final_cycle = end
        if len(data.spans) >= MAX_EVENTS:
            data.dropped_spans += 1
            return
        data.spans.append(Span(core=core, agent=agent, state=state,
                               start=start, end=end, detail=detail))

    def _add_mark(self, kind: str, name: str, cycle: int,
                  args: dict | None = None) -> None:
        self.data.marks.append(Mark(kind=kind, name=name, cycle=cycle,
                                    args=args or {}))
        if cycle > self.data.final_cycle:
            self.data.final_cycle = cycle

    # -- counter sampling (driven from the event queue) -----------------------

    def on_advance(self, now: int) -> None:
        """The event queue is about to advance to cycle ``now``.

        Emits one :class:`CounterSample` per crossed sample boundary;
        counter values reflect every event processed strictly before
        the boundary, which is deterministic because the queue itself
        is.
        """
        while self._next_sample <= now:
            self._emit_sample(self._next_sample)
            self._next_sample += self.data.sample_interval

    def _emit_sample(self, cycle: int) -> None:
        data = self.data
        if len(data.samples) >= MAX_EVENTS:
            data.dropped_samples += 1
            return
        m = self.machine
        bus = m.memsys.bus.stats
        data.samples.append(CounterSample(
            cycle=cycle,
            active_cores=sum(1 for c in m.cores if not c.is_idle),
            bus_busy_cycles=bus.busy_cycles,
            bus_transfers=bus.transfers,
            l3_misses=m.memsys.l3.misses,
            l3_accesses=m.memsys.l3.accesses,
            lock_acquisitions=m.locks.stats.acquisitions,
            retired_instructions=sum(c.retired_instructions
                                     for c in m.cores),
        ))
        if cycle > data.final_cycle:
            data.final_cycle = cycle

    # -- region / thread lifecycle --------------------------------------------

    def on_region_begin(self, num_threads: int, now: int) -> None:
        self._add_mark("region", f"region-begin({num_threads} threads)",
                       now, {"num_threads": num_threads})

    def on_region_end(self, now: int) -> None:
        self._add_mark("region", "region-end", now)

    def on_thread_start(self, core: int, agent: int, now: int) -> None:
        self._add_mark("thread", f"thread-{agent}-start", now,
                       {"core": core, "agent": agent})

    def on_thread_exit(self, core: int, agent: int, now: int) -> None:
        self._add_mark("thread", f"thread-{agent}-exit", now,
                       {"core": core, "agent": agent})

    # -- core execution ----------------------------------------------------------

    def on_compute(self, core: int, agent: int, start: int,
                   end: int) -> None:
        self._add_span(core, agent, STATE_COMPUTE, start, end)

    # -- memory ------------------------------------------------------------------

    def on_mem_access(self, core: int, line: int, is_write: bool,
                      start: int, end: int) -> None:
        if end - start < MIN_MEM_STALL_CYCLES:
            return
        kind = "store" if is_write else "load"
        self._add_span(core, core, STATE_MEMORY_STALL, start, end,
                       detail=f"{kind} line {line:#x}")

    # -- locks --------------------------------------------------------------------

    def on_lock_spin_begin(self, lock_id: int, agent: int,
                           now: int) -> None:
        self._lock_waits[(agent, lock_id)] = now

    def on_lock_acquired(self, lock_id: int, agent: int,
                         grant: int) -> None:
        spin_since = self._lock_waits.pop((agent, lock_id), None)
        if spin_since is not None:
            self._add_span(self._core_of(agent), agent, STATE_LOCK_SPIN,
                           spin_since, grant, detail=f"lock {lock_id}")
        self._held_since[(agent, lock_id)] = grant

    def on_lock_released(self, lock_id: int, agent: int, now: int) -> None:
        grant = self._held_since.pop((agent, lock_id), None)
        if grant is not None:
            self._add_span(self._core_of(agent), agent,
                           STATE_CRITICAL_SECTION, grant, now,
                           detail=f"lock {lock_id}")

    # -- barriers ---------------------------------------------------------------------

    def on_barrier_arrive(self, barrier_id: int, agent: int,
                          team_size: int, now: int) -> None:
        self._barrier_waits[(agent, barrier_id)] = now

    def on_barrier_release(self, barrier_id: int,
                           releases: list[tuple[int, int]],
                           now: int) -> None:
        for agent, release in releases:
            arrived = self._barrier_waits.pop((agent, barrier_id), None)
            if arrived is not None:
                self._add_span(self._core_of(agent), agent,
                               STATE_BARRIER_WAIT, arrived, release,
                               detail=f"barrier {barrier_id}")

    # -- FDT --------------------------------------------------------------------------

    def on_training_sample(self, kernel_name: str,
                           sample: "TrainingSample") -> None:
        self._add_mark("training", f"{kernel_name} iter {sample.iteration}",
                       self.machine.events.now, asdict(sample))

    def on_fdt_decision(self, decision: "Decision") -> None:
        self.data.decisions.append(decision)
        estimates = decision.estimates
        self._add_mark("decision", f"{decision.kernel_name}: "
                       f"{decision.chosen_threads} threads",
                       decision.decided_at, {
                           "kernel": decision.kernel_name,
                           "mode": decision.mode,
                           "p_cs": estimates.p_cs,
                           "p_bw": estimates.p_bw,
                           "p_fdt": estimates.p_fdt,
                           "chosen_threads": decision.chosen_threads,
                       })

    def on_app_begin(self, app_name: str, policy_name: str,
                     now: int) -> None:
        self._add_mark("app", f"{app_name} under {policy_name}", now,
                       {"app": app_name, "policy": policy_name})

    def on_kernel_complete(self, kernel_name: str, threads: int,
                           training_cycles: int, execution_cycles: int,
                           now: int) -> None:
        self._add_mark("kernel", f"{kernel_name} done", now, {
            "kernel": kernel_name,
            "threads": threads,
            "training_cycles": training_cycles,
            "execution_cycles": execution_cycles,
        })
