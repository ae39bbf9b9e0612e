"""The recorded trace: spans, counter samples, marks, FDT decisions.

Everything in this module is plain recorded data plus lossless
``to_dict`` encoders — the exporters (:mod:`repro.trace.export`) render
these structures, the recorder (:mod:`repro.trace.recorder`) fills
them, and nothing here touches the simulator.

The one behavioral piece is :meth:`FdtDecisionRecord.replay`, which
re-runs the estimation stage on the decision's own recorded samples —
the audit trail the decision log exists for: a logged thread-count
choice must be reproducible from its logged inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.fdt.training import TrainingSample

#: Timeline span states, in display order.
STATE_COMPUTE = "compute"
STATE_CRITICAL_SECTION = "critical-section"
STATE_LOCK_SPIN = "lock-spin"
STATE_BARRIER_WAIT = "barrier-wait"
STATE_MEMORY_STALL = "memory-stall"

SPAN_STATES = (
    STATE_COMPUTE,
    STATE_CRITICAL_SECTION,
    STATE_LOCK_SPIN,
    STATE_BARRIER_WAIT,
    STATE_MEMORY_STALL,
)


@dataclass(frozen=True, slots=True)
class Span:
    """One contiguous per-core state interval ``[start, end)``."""

    core: int
    agent: int
    state: str
    start: int
    end: int
    #: State-specific detail: lock/barrier id, memory line, instruction
    #: count — whatever names the span in a viewer.
    detail: str = ""

    @property
    def cycles(self) -> int:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "core": self.core,
            "agent": self.agent,
            "state": self.state,
            "start": self.start,
            "end": self.end,
            "detail": self.detail,
        }


@dataclass(frozen=True, slots=True)
class CounterSample:
    """Cumulative machine counters at one sample cycle.

    Counters are stored cumulative (exactly as the machine keeps them);
    per-interval rates are derived at export time by differencing
    consecutive samples.
    """

    cycle: int
    active_cores: int
    bus_busy_cycles: int
    bus_transfers: int
    l3_misses: int
    l3_accesses: int
    lock_acquisitions: int
    retired_instructions: int

    def to_dict(self) -> dict:
        return {
            "cycle": self.cycle,
            "active_cores": self.active_cores,
            "bus_busy_cycles": self.bus_busy_cycles,
            "bus_transfers": self.bus_transfers,
            "l3_misses": self.l3_misses,
            "l3_accesses": self.l3_accesses,
            "lock_acquisitions": self.lock_acquisitions,
            "retired_instructions": self.retired_instructions,
        }


@dataclass(frozen=True, slots=True)
class Mark:
    """An instant annotation: region/app/kernel boundaries, training
    samples — anything without a duration."""

    kind: str
    name: str
    cycle: int
    args: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "name": self.name,
                "cycle": self.cycle, "args": dict(self.args)}


@dataclass(frozen=True, slots=True)
class FdtDecisionRecord:
    """One FDT thread-count decision with its complete provenance.

    Carries the raw training samples, the derived measurements
    (T_CS/T_NoCS/BU_1), every intermediate of the Eq. 3/5/7 arithmetic,
    and the chosen thread count — enough to re-derive the decision from
    the record alone (:meth:`replay`).
    """

    kernel_name: str
    policy_name: str
    #: FDT mode: ``"sat"`` | ``"bat"`` | ``"sat+bat"``.
    mode: str
    #: Hardware thread slots (the clamp in Eq. 7).
    num_slots: int
    total_iterations: int
    trained_iterations: int
    stop_reason: str
    #: The raw per-iteration training measurements.
    samples: tuple[TrainingSample, ...]
    # -- derived measurements (Sections 4.2.2 / 5.2) -------------------
    t_cs: float
    t_nocs: float
    bu1: float
    # -- model arithmetic (Eq. 3 / Eq. 5 / Eq. 7) ----------------------
    p_cs_real: float
    p_bw_real: float
    p_cs: int
    p_bw: int
    p_fdt: int
    #: What the policy actually ran the execution phase with.
    chosen_threads: int
    #: Machine cycle at which the decision was taken.
    decided_at: int

    def replay(self) -> int:
        """Recompute the thread-count decision from the recorded samples.

        Rebuilds a training log from :attr:`samples`, re-runs the
        estimation stage, and applies this record's mode — the returned
        count must equal :attr:`chosen_threads` for any faithful record
        of the paper's three modes.  A Section 9 policy's record replays
        to the estimate its probe then refined.
        """
        from repro.fdt.estimators import estimate
        from repro.fdt.policies import FdtMode
        from repro.fdt.training import TrainingConfig, TrainingLog

        log = TrainingLog(config=TrainingConfig(),
                          total_iterations=max(1, self.total_iterations),
                          num_cores=self.num_slots,
                          samples=list(self.samples))
        return FdtMode(self.mode).pick(estimate(log, self.num_slots))

    def to_dict(self) -> dict:
        return {
            "kernel_name": self.kernel_name,
            "policy_name": self.policy_name,
            "mode": self.mode,
            "num_slots": self.num_slots,
            "total_iterations": self.total_iterations,
            "trained_iterations": self.trained_iterations,
            "stop_reason": self.stop_reason,
            "samples": [
                {"iteration": s.iteration,
                 "total_cycles": s.total_cycles,
                 "cs_cycles": s.cs_cycles,
                 "bus_busy_cycles": s.bus_busy_cycles}
                for s in self.samples],
            "t_cs": self.t_cs,
            "t_nocs": self.t_nocs,
            "bu1": self.bu1,
            "p_cs_real": self.p_cs_real if self.p_cs_real != float("inf")
            else "inf",
            "p_bw_real": self.p_bw_real if self.p_bw_real != float("inf")
            else "inf",
            "p_cs": self.p_cs,
            "p_bw": self.p_bw,
            "p_fdt": self.p_fdt,
            "chosen_threads": self.chosen_threads,
            "decided_at": self.decided_at,
        }


@dataclass(frozen=True, slots=True)
class TraceConfig:
    """Knobs of the cycle-level tracer (``TraceRecorder(TraceConfig(...))``).

    The tracer is a pure observer: it never schedules events or changes
    timing, so cycle counts are identical with it attached or not.
    """

    #: Record the per-core state timeline (compute / critical-section /
    #: lock-spin / barrier-wait / memory-stall spans).
    timeline: bool = True
    #: Sample machine counters every :attr:`sample_interval` cycles.
    counters: bool = True
    #: Record FDT training samples and thread-count decisions.
    decisions: bool = True
    #: Cycles between counter samples.
    sample_interval: int = 1000
    #: Memory stalls shorter than this many cycles are not recorded
    #: (keeps L2-miss noise out of the timeline; 0 records everything).
    min_mem_stall_cycles: int = 8
    #: Cap on recorded timeline spans and on counter samples (each
    #: bounded separately; further ones are counted but dropped).
    max_events: int = 1_000_000

    def __post_init__(self) -> None:
        if self.sample_interval < 1:
            raise ConfigError("sample_interval must be >= 1")
        if self.min_mem_stall_cycles < 0:
            raise ConfigError("min_mem_stall_cycles must be >= 0")
        if self.max_events < 1:
            raise ConfigError("max_events must be >= 1")


@dataclass(slots=True)
class Trace:
    """Everything one traced machine recorded."""

    config: TraceConfig
    num_cores: int
    spans: list[Span] = field(default_factory=list)
    samples: list[CounterSample] = field(default_factory=list)
    marks: list[Mark] = field(default_factory=list)
    decisions: list[FdtDecisionRecord] = field(default_factory=list)
    #: Spans/samples discarded after :attr:`TraceConfig.max_events`.
    dropped_spans: int = 0
    dropped_samples: int = 0
    #: Last cycle the recorder observed.
    final_cycle: int = 0

    # -- aggregate views -----------------------------------------------------

    def spans_of_state(self, state: str) -> list[Span]:
        return [s for s in self.spans if s.state == state]

    def state_cycles(self, state: str) -> int:
        """Total cycles across all cores spent in ``state``."""
        return sum(s.cycles for s in self.spans if s.state == state)

    @property
    def critical_section_cycles(self) -> int:
        """Summed critical-section span cycles (lock hold time)."""
        return self.state_cycles(STATE_CRITICAL_SECTION)
