"""Data model of the static workload analyzer.

The abstract executor (:mod:`repro.check.static.executor`) drives each
thread program of a team and materializes one bounded
:class:`ThreadSummary` per thread; the pass pipeline
(:mod:`repro.check.static.analyzer`) consumes a :class:`TeamSummary`
per requested team size.  Summaries are *facts about the op stream* —
counts, sequences, and sets — never simulated timing: the only cycle
numbers here are the abstract cost estimates the executor uses both as
stubbed counter values and as the raw material of the static priors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(slots=True)
class LockRegion:
    """One lock..unlock region observed in a single thread's stream."""

    lock_id: int
    #: Op ordinal (0-based, within the thread) of the acquiring Lock.
    start_index: int
    #: Nesting depth at acquisition (0 = outermost).
    depth: int
    #: Compute instructions retired strictly inside the region.
    instructions: int = 0
    loads: int = 0
    stores: int = 0
    counter_reads: int = 0
    #: Locks acquired while this region was open (nesting).
    inner_locks: int = 0
    #: Abstract cycle estimate of the work inside the region.
    est_cycles: int = 0
    #: True once the matching Unlock was seen.
    closed: bool = False

    @property
    def mem_ops(self) -> int:
        return self.loads + self.stores

    @property
    def empty(self) -> bool:
        """No work at all between Lock and Unlock."""
        return (self.instructions == 0 and self.mem_ops == 0
                and self.inner_locks == 0 and self.counter_reads == 0)


@dataclass(slots=True)
class LockFault:
    """A structural lock error observed while summarizing one thread."""

    #: Finding code: "static-double-acquire", "static-unlock-of-unheld",
    #: "static-unlock-mismatch", or "static-held-at-exit".
    kind: str
    thread_id: int
    lock_id: int
    #: Op ordinal of the faulting op (-1 for end-of-program faults).
    index: int
    #: Lock ids held when the fault occurred.
    held: tuple[int, ...]

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "thread": self.thread_id,
                "lock": self.lock_id, "index": self.index,
                "held": list(self.held)}


@dataclass(slots=True)
class CounterReadSite:
    """A ReadCounter observed with at least one lock held."""

    thread_id: int
    counter: str
    index: int
    held: tuple[int, ...]


@dataclass(slots=True)
class ThreadSummary:
    """Bounded facts about one thread program's op stream."""

    thread_id: int
    num_threads: int
    # -- op totals ---------------------------------------------------------
    ops: int = 0
    instructions: int = 0
    computes: int = 0
    zero_computes: int = 0
    loads: int = 0
    stores: int = 0
    counter_reads: int = 0
    lock_acquires: int = 0
    lock_releases: int = 0
    barrier_waits: int = 0
    # -- abstract timing (the stubbed-counter model) -----------------------
    est_cycles: int = 0
    est_cs_cycles: int = 0
    est_bus_busy: int = 0
    cs_instructions: int = 0
    # -- structure ---------------------------------------------------------
    barrier_sequence: list[int] = field(default_factory=list)
    lock_regions: list[LockRegion] = field(default_factory=list)
    lock_faults: list[LockFault] = field(default_factory=list)
    #: (held, wanted) -> op ordinal of the first observation.
    lock_order_edges: dict[tuple[int, int], int] = field(default_factory=dict)
    counter_in_cs: list[CounterReadSite] = field(default_factory=list)
    #: line address -> [load count, store count].
    line_accesses: dict[int, list[int]] = field(default_factory=dict)
    #: The thread hit the op budget; totals are lower bounds and
    #: whole-stream properties (barriers, held-at-exit) are unknown.
    truncated: bool = False

    @property
    def distinct_lines(self) -> int:
        return len(self.line_accesses)

    def to_dict(self) -> dict[str, Any]:
        return {
            "thread": self.thread_id,
            "ops": self.ops,
            "instructions": self.instructions,
            "loads": self.loads,
            "stores": self.stores,
            "counter_reads": self.counter_reads,
            "barrier_waits": self.barrier_waits,
            "lock_acquires": self.lock_acquires,
            "distinct_lines": self.distinct_lines,
            "est_cycles": self.est_cycles,
            "est_cs_cycles": self.est_cs_cycles,
            "est_bus_busy": self.est_bus_busy,
            "truncated": self.truncated,
        }


@dataclass(slots=True)
class TeamSummary:
    """All thread summaries of one kernel at one team size."""

    kernel: str
    num_threads: int
    threads: list[ThreadSummary]

    @property
    def truncated(self) -> bool:
        return any(t.truncated for t in self.threads)

    @property
    def total_instructions(self) -> int:
        return sum(t.instructions for t in self.threads)

    def shared_lines(self) -> int:
        """Lines touched by at least two distinct threads."""
        seen: dict[int, int] = {}
        shared = 0
        for t in self.threads:
            for line in t.line_accesses:
                owner = seen.get(line)
                if owner is None:
                    seen[line] = t.thread_id
                elif owner >= 0 and owner != t.thread_id:
                    seen[line] = -1
                    shared += 1
        return shared
