"""Run manifests: what every job in a batch did and what it cost.

A :class:`RunManifest` accumulates one :class:`~repro.obs.runreg.
RunRecord` per job a :class:`~repro.jobs.api.JobRunner` resolved — cache
hits included; the same record the run registry persists — and
serializes to strict JSON for post-hoc inspection (which runs were
recomputed and why, where the wall time went, whether a warm cache
actually eliminated all simulation).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.jobs.resolution import (
    SERVED,
    STATUS_COMPUTED,
    STATUS_HIT,
    STATUS_TIMEOUT,
)
from repro.jobs.spec import SCHEMA_VERSION
from repro.obs.runreg import RunRecord

#: The record fields a manifest entry serializes, in JSON order.
ENTRY_FIELDS = ("key", "workload", "policy", "status", "backend",
                "wall_time", "error", "trace_path", "started_at",
                "finished_at")


@dataclass(slots=True)
class RunManifest:
    """Accumulated record of one batch run."""

    entries: list[RunRecord] = field(default_factory=list)

    def record(self, entry: RunRecord) -> None:
        self.entries.append(entry)

    @property
    def counts(self) -> dict:
        """Totals by outcome.

        ``timeouts`` is its own bucket — a job that produced no result
        in time is operationally different from one that crashed (the
        server maps it to 504, not 500) — and ``failed`` counts only
        the genuinely failed rest (crashes, preflight rejections).
        """
        def count(*statuses: str) -> int:
            return sum(1 for e in self.entries if e.status in statuses)

        return {
            "total": len(self.entries),
            "hits": count(STATUS_HIT),
            "computed": count(STATUS_COMPUTED),
            "failed": len(self.entries) - count(*SERVED, STATUS_TIMEOUT),
            "timeouts": count(STATUS_TIMEOUT),
        }

    @property
    def wall_time(self) -> float:
        """Summed per-job wall time (not batch elapsed time)."""
        return sum(e.wall_time for e in self.entries)

    @property
    def started_at(self) -> str:
        """Earliest per-entry start ("" until a stamped entry exists)."""
        stamps = [e.started_at for e in self.entries if e.started_at]
        return min(stamps) if stamps else ""

    @property
    def finished_at(self) -> str:
        """Latest per-entry finish ("" until a stamped entry exists)."""
        stamps = [e.finished_at for e in self.entries if e.finished_at]
        return max(stamps) if stamps else ""

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "counts": self.counts,
            "wall_time": round(self.wall_time, 6),
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "entries": [{name: row[name] for name in ENTRY_FIELDS}
                        for row in (e.to_dict() for e in self.entries)],
        }

    def write(self, path: str | Path) -> None:
        """Write the manifest as JSON (parent dirs created)."""
        target = Path(path)
        if target.parent != Path(""):
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_dict(), indent=2) + "\n",
                          encoding="utf-8")

    def summary(self) -> str:
        """One line for humans: totals and simulation wall time."""
        c = self.counts
        line = (f"{c['total']} job(s): {c['hits']} cache hit(s), "
                f"{c['computed']} computed")
        if c["timeouts"]:
            line += f", {c['timeouts']} TIMED OUT"
        if c["failed"]:
            line += f", {c['failed']} FAILED"
        return f"{line}; {self.wall_time:.2f}s simulated work"
