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
skipped on read rather than poisoning the file.

The jobs layer writes rows from its single bookkeeping point
(``JobRunner._record``, which also feeds the manifest), so the
registry and the manifest can never disagree.  The ``repro obs`` CLI
(:mod:`repro.obs.cli`) queries it: ``list``, ``show <key>``, ``tail``,
``report``.
"""

from __future__ import annotations

import json
import os
import platform
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.obs.log import get_logger
from repro.obs.registry import default_registry

#: Bump on any incompatible change to the row layout.
SCHEMA = "repro-obs-run/1"

REGISTRY_FILENAME = "runs.jsonl"

_log = get_logger("obs")


def host_fingerprint() -> dict[str, Any]:
    """Identify the executing host well enough to judge comparability."""
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
        self._lock = threading.Lock()
        #: True once an append failed: the registry keeps accepting
        #: rows (and dropping them) so the workload never stops, but
        #: the degradation is warned once and counted.
        self.degraded = False

    def append(self, record: RunRecord) -> None:
        line = json.dumps(record.to_dict(), sort_keys=True) + "\n"
        with self._lock:
            try:
                self.root.mkdir(parents=True, exist_ok=True)
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(line)
            except OSError as exc:
                # Provenance must never take the workload down: drop
                # the row, warn once, and count every drop.
                if not self.degraded:
                    self.degraded = True
                    _log.warning(
                        "run registry unwritable; provenance rows are "
                        "being dropped",
                        extra={"path": str(self.path), "error": str(exc)})
                default_registry().labeled_counter(
                    "repro_obs_degraded_total",
                    "Telemetry writes dropped because a sink is "
                    "unwritable.", "sink").inc("runreg")
            else:
                self.degraded = False

    def records(self) -> list[RunRecord]:
        """All rows in append order, skipping torn/corrupt lines."""
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return []
        out: list[RunRecord] = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                out.append(RunRecord.from_dict(json.loads(line)))
            except (KeyError, TypeError, ValueError):
                continue
        return out

    def tail(self, count: int = 10) -> list[RunRecord]:
        """The last ``count`` rows, oldest first."""
        rows = self.records()
        return rows[-count:] if count > 0 else []

    def get(self, key: str) -> RunRecord | None:
        """The most recent row whose key equals — or starts with —
        ``key`` (prefix match mirrors git's abbreviated-hash habit)."""
        match: RunRecord | None = None
        for record in self.records():
            if record.key == key or record.key.startswith(key):
                match = record
        return match

    def history(self, key: str) -> list[RunRecord]:
        """Every row for a key (exact or prefix), oldest first."""
        return [r for r in self.records()
                if r.key == key or r.key.startswith(key)]

    def report(self) -> dict[str, Any]:
        """Aggregate summary across all rows."""
        rows = self.records()
        by_status: dict[str, int] = {}
        by_workload: dict[str, int] = {}
        computed_wall: list[float] = []
        for record in rows:
            by_status[record.status] = by_status.get(record.status, 0) + 1
            if record.workload:
                by_workload[record.workload] = \
                    by_workload.get(record.workload, 0) + 1
            if record.status == "computed":
                computed_wall.append(record.wall_time)
        resolved = by_status.get("hit", 0) + by_status.get("computed", 0)
        return {
            "schema": SCHEMA,
            "path": str(self.path),
            "rows": len(rows),
            "unique_keys": len({r.key for r in rows}),
            "by_status": dict(sorted(by_status.items())),
            "by_workload": dict(sorted(by_workload.items())),
            "hit_rate": (by_status.get("hit", 0) / resolved
                         if resolved else 0.0),
            "computed_wall_time_total": round(sum(computed_wall), 6),
            "computed_wall_time_mean": (
                round(sum(computed_wall) / len(computed_wall), 6)
                if computed_wall else 0.0),
        }


def format_records(records: Iterable[RunRecord]) -> str:
    """One row per line: abbreviated key, status, workload, timing."""
    lines = []
    for r in records:
        lines.append(
            f"{r.key[:12]}  {r.status:<17} {r.workload:<12} "
            f"{r.policy:<8} {r.wall_time:8.3f}s  {r.finished_at}")
    return "\n".join(lines)
