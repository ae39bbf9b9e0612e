"""Run manifests: what every job in a batch did and what it cost.

A :class:`RunManifest` takes one :class:`~repro.obs.runreg.RunRecord`
per job a :class:`~repro.jobs.api.JobRunner` resolved — cache hits
included; the same record the run registry persists — and serializes to
strict JSON for post-hoc inspection (which runs were recomputed and
why, where the wall time went, whether a warm cache actually eliminated
all simulation).  Its totals are running values: ``entries=None`` keeps
only them, as a server that writes no manifest does.
"""

from __future__ import annotations

import collections
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

    #: Every record, in arrival order; ``None`` keeps the totals only.
    entries: list[RunRecord] | None = field(default_factory=list)
    _statuses: collections.Counter[str] = field(
        default_factory=collections.Counter, init=False, repr=False)
    #: Summed per-job wall time (not batch elapsed time; an int 0, as a
    #: sum over no rows is, until the first record).
    wall_time: float = field(default=0, init=False)
    #: Earliest per-entry start ("" until a stamped entry exists).
    started_at: str = field(default="", init=False)
    #: Latest per-entry finish ("" until a stamped entry exists).
    finished_at: str = field(default="", init=False)

    def record(self, entry: RunRecord) -> None:
        if self.entries is not None:
            self.entries.append(entry)
        self._statuses[entry.status] += 1
        self.wall_time += entry.wall_time
        if entry.started_at and (not self.started_at
                                 or entry.started_at < self.started_at):
            self.started_at = entry.started_at
        if entry.finished_at > self.finished_at:
            self.finished_at = entry.finished_at

    @property
    def counts(self) -> dict:
        """Totals by outcome.

        ``timeouts`` is its own bucket — a job that produced no result
        in time is operationally different from one that crashed (the
        server maps it to 504, not 500) — and ``failed`` counts only
        the genuinely failed rest (crashes, simulation errors).
        """
        def count(*statuses: str) -> int:
            return sum(self._statuses[s] for s in statuses)

        total = self._statuses.total()
        return {
            "total": total,
            "hits": count(STATUS_HIT),
            "computed": count(STATUS_COMPUTED),
            "failed": total - count(*SERVED, STATUS_TIMEOUT),
            "timeouts": count(STATUS_TIMEOUT),
        }

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "counts": self.counts,
            "wall_time": round(self.wall_time, 6),
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "entries": [{name: row[name] for name in ENTRY_FIELDS}
                        for row in (e.to_dict() for e in self.entries or ())],
        }

    def write(self, path: str | Path) -> None:
        """Write the manifest as JSON (parent dirs created)."""
        target = Path(path)
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
