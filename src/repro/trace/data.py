"""The recorded trace: spans, counter samples, marks, FDT decisions.

Everything in this module is plain recorded data plus lossless
``to_dict`` encoders — the exporters (:mod:`repro.trace.export`) render
these structures, the recorder (:mod:`repro.trace.recorder`) fills
them, and nothing here touches the simulator.  The decision log holds
the policies' own :class:`~repro.fdt.estimators.Decision` records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.fdt.estimators import Decision

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


@dataclass(frozen=True, slots=True)
class Mark:
    """An instant annotation: region/app/kernel boundaries, training
    samples — anything without a duration."""

    kind: str
    name: str
    cycle: int
    args: dict = field(default_factory=dict)


@dataclass(slots=True)
class Trace:
    """Everything one traced machine recorded."""

    #: Cycles between counter samples.
    sample_interval: int
    num_cores: int
    spans: list[Span] = field(default_factory=list)
    samples: list[CounterSample] = field(default_factory=list)
    marks: list[Mark] = field(default_factory=list)
    decisions: list[Decision] = field(default_factory=list)
    #: Spans/samples discarded after :data:`repro.trace.recorder.MAX_EVENTS`.
    dropped_spans: int = 0
    dropped_samples: int = 0
    #: Last cycle the recorder observed.
    final_cycle: int = 0

    # -- aggregate views -----------------------------------------------------

    def spans_of_state(self, state: str) -> list[Span]:
        return [s for s in self.spans if s.state == state]
