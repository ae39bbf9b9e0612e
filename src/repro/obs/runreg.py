"""Persistent run registry: one provenance row per resolved spec.

Answers the question the result cache cannot: not *what* did spec
``k`` produce, but *when* was it resolved, *where* (host fingerprint),
*how* (cache hit or computed, on which backend, how long), and *what
did FDT decide* — without re-running the experiment.

Rows are appended to ``runs.jsonl`` under the registry root (by
default ``<cache root>/obs``, so the registry rides along with the
result cache and honours ``REPRO_CACHE_DIR``).  JSON-lines because the
write path must be cheap and crash-tolerant: one ``O_APPEND`` write
per resolved spec, no index to corrupt, and a torn final line is
skipped on read rather than poisoning the file — a
:class:`~repro.obs.jsonl.JsonLines` file, as the span sink is.

The jobs layer writes rows from its single bookkeeping point
(``JobRunner._record``, which also feeds the manifest), so the
registry and the manifest can never disagree.  The ``repro obs`` CLI
(:mod:`repro.obs.cli`) queries it: ``list``, ``show <key>``,
``report``.
"""

from __future__ import annotations

import collections
import functools
import os
import platform
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.obs.jsonl import JsonLines, read_jsonl

#: Bump on any incompatible change to the row layout.
SCHEMA = "repro-obs-run/1"

REGISTRY_FILENAME = "runs.jsonl"


@functools.cache
def host_fingerprint() -> dict[str, Any]:
    """Identify the executing host well enough to judge comparability
    (once per process: every row shares the one dict)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def default_runreg_dir() -> Path:
    """``<result-cache root>/obs`` — honours ``REPRO_CACHE_DIR``."""
    from repro.jobs.cache import default_cache_dir

    return default_cache_dir() / "obs"


@dataclass(frozen=True, slots=True)
class RunRecord:
    """One provenance row for one resolved job spec."""

    #: Content key of the spec (sha256 over canonical spec JSON).
    key: str
    workload: str
    policy: str
    #: Disposition: ``hit`` / ``computed`` / ``failed`` / ``timeout`` /
    #: ``preflight-failed``.
    status: str
    #: ``cache`` | ``serial`` | ``pool`` | ``serial-fallback``.
    backend: str
    wall_time: float = 0.0
    #: Wall-clock bounds, ISO-8601 with timezone ("" when unstamped).
    started_at: str = ""
    finished_at: str = ""
    #: Job-spec schema version the key was computed under.
    schema_version: int = 0
    host: dict[str, Any] = field(default_factory=dict)
    #: Obs trace the resolution belongs to ("" when untraced).
    trace_id: str = ""
    #: Where the job's trace artifacts were written ("" when untraced;
    #: cache hits never re-trace, so hits always carry "").
    trace_path: str = ""
    error: str = ""
    #: Per-kernel FDT decisions: ``[{"kernel", "threads", "estimates"}]``.
    fdt: list[dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA,
            "key": self.key,
            "workload": self.workload,
            "policy": self.policy,
            "status": self.status,
            "backend": self.backend,
            "wall_time": round(self.wall_time, 6),
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "schema_version": self.schema_version,
            "host": dict(self.host),
            "trace_id": self.trace_id,
            "trace_path": self.trace_path,
            "error": self.error,
            "fdt": [dict(d) for d in self.fdt],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunRecord":
        return cls(
            key=data["key"], workload=data.get("workload", ""),
            policy=data.get("policy", ""), status=data["status"],
            backend=data.get("backend", ""),
            wall_time=float(data.get("wall_time", 0.0)),
            started_at=data.get("started_at", ""),
            finished_at=data.get("finished_at", ""),
            schema_version=int(data.get("schema_version", 0)),
            host=dict(data.get("host", {})),
            trace_id=data.get("trace_id", ""),
            trace_path=data.get("trace_path", ""),
            error=data.get("error", ""),
            fdt=[dict(d) for d in data.get("fdt", [])],
        )


class RunRegistry:
    """Append-only JSONL registry of :class:`RunRecord` rows."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_runreg_dir()
        self.path = self.root / REGISTRY_FILENAME
        self.sink = JsonLines(self.path, "runreg")

    def append(self, record: RunRecord) -> None:
        self.sink.append(record.to_dict())

    def records(self) -> list[RunRecord]:
        """All rows in append order, skipping torn/corrupt lines."""
        return read_jsonl(self.path, RunRecord.from_dict)

    def lookup(self, prefix: str) -> list[RunRecord]:
        """Every row whose key starts with ``prefix``, oldest first (an
        abbreviated key, as git abbreviates a hash)."""
        return [r for r in self.records() if r.key.startswith(prefix)]

    def report(self) -> dict[str, Any]:
        """Aggregate summary across all rows."""
        rows = self.records()
        by_status = collections.Counter(r.status for r in rows)
        by_workload = collections.Counter(r.workload for r in rows
                                          if r.workload)
        computed_wall = [r.wall_time for r in rows if r.status == "computed"]
        resolved = by_status["hit"] + by_status["computed"]
        return {
            "schema": SCHEMA,
            "path": str(self.path),
            "rows": len(rows),
            "unique_keys": len({r.key for r in rows}),
            "by_status": dict(sorted(by_status.items())),
            "by_workload": dict(sorted(by_workload.items())),
            "hit_rate": by_status["hit"] / resolved if resolved else 0.0,
            "computed_wall_time_total": round(sum(computed_wall), 6),
            "computed_wall_time_mean": (
                round(sum(computed_wall) / len(computed_wall), 6)
                if computed_wall else 0.0),
        }


@functools.cache
def shared_registry(root: Path) -> RunRegistry:
    """The one registry this process appends through under ``root``:
    its writers share one lock and one degraded episode."""
    return RunRegistry(root)


def format_records(records: Iterable[RunRecord]) -> str:
    """One row per line: abbreviated key, status, workload, timing."""
    return "\n".join(
        f"{r.key[:12]}  {r.status:<17} {r.workload:<12} "
        f"{r.policy:<8} {r.wall_time:8.3f}s  {r.finished_at}"
        for r in records)
