"""Findings model of the thread sanitizer.

A :class:`Finding` is one reported defect — a data race, a lock-order
cycle, or a discipline violation — with enough structured detail for a
machine consumer (``repro check --json``) and a one-line message for a
human one.  A :class:`CheckReport` bundles everything one sanitized run
produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

#: Analysis identifiers, in report order.
RACE = "race"
LOCK_ORDER = "lock-order"
DISCIPLINE = "discipline"
RUNTIME = "runtime"
#: Ahead-of-run findings from :mod:`repro.check.static` — program
#: properties proved from op summaries before a single cycle simulates.
STATIC = "static"

ANALYSES = (RACE, LOCK_ORDER, DISCIPLINE, RUNTIME, STATIC)

#: Cap on the findings one analysis records; further ones are counted
#: (``dropped``) but not listed.
MAX_FINDINGS = 100


@dataclass(frozen=True, slots=True)
class AccessSite:
    """One observed memory access, for race reports."""

    agent: int
    #: 1-based ordinal of this access among the agent's accesses.
    index: int
    kind: str  # "load" | "store"
    cycle: int

    def to_dict(self) -> dict[str, Any]:
        return {"agent": self.agent, "index": self.index,
                "kind": self.kind, "cycle": self.cycle}

    def __str__(self) -> str:
        return f"agent {self.agent} {self.kind} #{self.index} @ {self.cycle}"


@dataclass(frozen=True, slots=True)
class Finding:
    """One sanitizer finding."""

    #: Which analysis produced it: "race", "lock-order", "discipline",
    #: or "runtime" (the simulated run itself aborted).
    analysis: str
    #: Machine-readable finding type, e.g. "empty-lockset",
    #: "lock-order-cycle", "unlock-of-unheld".
    kind: str
    #: One-line human-readable description.
    message: str
    #: Structured, JSON-serializable payload (addresses, lock ids, sites).
    details: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"analysis": self.analysis, "kind": self.kind,
                "message": self.message, "details": dict(self.details)}


class FindingLog:
    """Findings in the order recorded, capped at :data:`MAX_FINDINGS`."""

    def __init__(self) -> None:
        self.findings: list[Finding] = []
        #: Findings counted but not listed because the cap was reached.
        self.dropped = 0

    def add(self, finding: Finding) -> None:
        if len(self.findings) >= MAX_FINDINGS:
            self.dropped += 1
        else:
            self.findings.append(finding)


@dataclass(frozen=True, slots=True)
class CheckReport:
    """Everything one ``repro check`` run produced."""

    workload: str
    threads: int
    findings: tuple[Finding, ...]
    #: Exception text if the simulated run itself died (deadlock,
    #: unlock-of-unheld aborting the lock manager, ...); None otherwise.
    aborted: str | None = None
    #: Simulated cycles the checked run covered.
    cycles: int = 0
    #: Findings dropped because an analysis hit :data:`MAX_FINDINGS`.
    dropped: int = 0

    @property
    def clean(self) -> bool:
        """True when the workload passed every analysis."""
        return not self.findings and self.aborted is None

    def counts(self) -> dict[str, int]:
        """Finding count per analysis (all analyses, zeros included)."""
        out = {name: 0 for name in ANALYSES}
        for f in self.findings:
            out[f.analysis] = out.get(f.analysis, 0) + 1
        return out

    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "threads": self.threads,
            "clean": self.clean,
            "aborted": self.aborted,
            "cycles": self.cycles,
            "dropped": self.dropped,
            "counts": self.counts(),
            "findings": [f.to_dict() for f in self.findings],
        }
