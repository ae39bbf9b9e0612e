"""Findings model of the program checker.

A :class:`Finding` is one reported defect — a race, a lock-order cycle,
a barrier that can never fill, or a discipline violation — with enough
structured detail for a machine consumer (``repro check --json``) and a
one-line message for a human one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

#: Cap on the findings one report lists; further ones are counted
#: (``dropped``) but not listed.
MAX_FINDINGS = 100


@dataclass(frozen=True, slots=True)
class Finding:
    """One checker finding."""

    #: Machine-readable finding type, e.g. "static-empty-lockset",
    #: "static-lock-order-cycle", "static-unlock-of-unheld".
    kind: str
    #: One-line human-readable description.
    message: str
    #: Structured, JSON-serializable payload (addresses, lock ids, threads).
    details: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "message": self.message,
                "details": dict(self.details)}


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
