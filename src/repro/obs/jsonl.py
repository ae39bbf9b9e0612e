"""One JSON-lines file type for the run registry and the span sink.

:class:`JsonLines` appends one sorted-key JSON object per line under a
lock, so concurrent writers never interleave.  Telemetry must never take
the workload down: a failed write drops the line, warns once per
degraded episode (the next good write ends the episode) and counts
``repro_obs_degraded_total{sink}``.  :func:`read_jsonl` reads a file
back, skipping a torn final line (a crash mid-write) or any corrupt one.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Callable, TypeVar

from repro.obs.log import get_logger
from repro.obs.registry import default_registry

_T = TypeVar("_T")

_log = get_logger("obs")

#: One ``O_APPEND`` write per line: the kernel places it at the end.
_APPEND = os.O_WRONLY | os.O_APPEND | os.O_CREAT


class JsonLines:
    """An append-only JSON-lines file that degrades instead of raising."""

    __slots__ = ("path", "sink", "degraded", "_lock")

    def __init__(self, path: str | Path, sink: str) -> None:
        self.path = Path(path)
        #: The ``sink`` label of the dropped-write counter.
        self.sink = sink
        #: True from a failed write until the next successful one.
        self.degraded = False
        self._lock = threading.Lock()

    def append(self, doc: dict[str, Any]) -> None:
        line = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
        with self._lock:
            try:
                try:
                    fd = os.open(self.path, _APPEND, 0o666)
                except FileNotFoundError:  # first write, or dir removed
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    fd = os.open(self.path, _APPEND, 0o666)
                try:
                    os.write(fd, line)
                finally:
                    os.close(fd)
            except OSError as exc:
                if not self.degraded:
                    self.degraded = True
                    _log.warning(
                        "obs sink unwritable; its lines are being dropped",
                        extra={"sink": self.sink, "path": str(self.path),
                               "error": str(exc)})
                default_registry().counter(
                    "repro_obs_degraded_total",
                    "Telemetry writes dropped because a sink is "
                    "unwritable.", label="sink").inc(self.sink)
            else:
                self.degraded = False


def read_jsonl(path: str | Path, parse: Callable[[Any], _T]) -> list[_T]:
    """``parse`` of every line of ``path`` it accepts, in file order.

    A line that is not JSON or that ``parse`` rejects (KeyError,
    TypeError, ValueError) is skipped; a missing file reads as empty.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        return []
    out: list[_T] = []
    for line in text.splitlines():
        try:
            out.append(parse(json.loads(line)))
        except (KeyError, TypeError, ValueError):
            continue
    return out
