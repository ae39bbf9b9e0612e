"""Structured logging: per-subsystem loggers, JSON or human lines.

Built on stdlib :mod:`logging`.  Every repro logger hangs off the
``"repro"`` root (``get_logger("serve") → "repro.serve"``), so one
:func:`configure` call — driven by the global ``--log-level`` /
``--log-json`` CLI flags — sets level and format for every subsystem
at once without touching the process root logger.

The JSON format is one object per line::

    {"ts": "2026-08-07T12:00:00.123456+00:00", "level": "INFO",
     "logger": "repro.serve", "msg": "request", "trace_id": "…",
     "span_id": "…", "endpoint": "/v1/run"}

``trace_id``/``span_id`` come from the active obs span (if any), so log
lines join the same timeline as spans and the run registry.  Extra
key-value context goes through the standard ``extra=`` mechanism.

Pool workers get the parent's choice as arguments: :func:`current`
reads it back from the logger tree and the process pool's initializer
(:func:`repro.jobs.executor.run_parallel`) calls :func:`configure` with
it on the child side.
"""

from __future__ import annotations

import json
import logging
import sys
from datetime import datetime, timezone
from typing import Any, TextIO

_ROOT = "repro"

#: Attributes of a LogRecord that are not user-supplied context.
_RECORD_FIELDS = frozenset(
    logging.LogRecord("", 0, "", 0, "", (), None).__dict__) | {
        "message", "asctime", "taskName"}


def _trace_fields() -> dict[str, str]:
    from repro.obs.tracing import current_context

    ctx = current_context()
    if ctx is None:
        return {}
    return {"trace_id": ctx.trace_id, "span_id": ctx.span_id}


class JsonFormatter(logging.Formatter):
    """One JSON object per line, trace-correlated."""

    def format(self, record: logging.LogRecord) -> str:
        doc: dict[str, Any] = {
            "ts": datetime.fromtimestamp(
                record.created, tz=timezone.utc).isoformat(),
            "level": record.levelname,
            "logger": record.name,
            "msg": record.getMessage(),
        }
        doc.update(_trace_fields())
        for key, value in record.__dict__.items():
            if key in _RECORD_FIELDS or key.startswith("_"):
                continue
            try:
                json.dumps(value)
            except (TypeError, ValueError):
                value = repr(value)
            doc[key] = value
        if record.exc_info and record.exc_info[0] is not None:
            doc["exc"] = self.formatException(record.exc_info)
        return json.dumps(doc, sort_keys=False)


class HumanFormatter(logging.Formatter):
    """``HH:MM:SS LEVEL logger: msg [k=v …]`` with a short trace tag."""

    def format(self, record: logging.LogRecord) -> str:
        stamp = datetime.fromtimestamp(record.created).strftime("%H:%M:%S")
        parts = [f"{stamp} {record.levelname:<7} {record.name}:",
                 record.getMessage()]
        trace = _trace_fields()
        if trace:
            parts.append(f"[trace={trace['trace_id'][:8]}]")
        for key, value in record.__dict__.items():
            if key in _RECORD_FIELDS or key.startswith("_"):
                continue
            parts.append(f"{key}={value}")
        line = " ".join(str(p) for p in parts)
        if record.exc_info and record.exc_info[0] is not None:
            line += "\n" + self.formatException(record.exc_info)
        return line


def get_logger(subsystem: str) -> logging.Logger:
    """The logger for a subsystem (``"serve"`` → ``repro.serve``)."""
    if subsystem == _ROOT or subsystem.startswith(_ROOT + "."):
        return logging.getLogger(subsystem)
    return logging.getLogger(f"{_ROOT}.{subsystem}")


def configure(level: str = "WARNING", json_lines: bool = False,
              stream: TextIO | None = None) -> logging.Logger:
    """(Re)configure the ``repro`` logger tree.

    Replaces any previous handler, so calling twice is safe.
    """
    root = logging.getLogger(_ROOT)
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None
                                    else sys.stderr)
    handler.setFormatter(JsonFormatter() if json_lines else HumanFormatter())
    root.addHandler(handler)
    root.setLevel(getattr(logging, level.upper(), logging.WARNING))
    root.propagate = False
    return root


def current() -> tuple[str, bool] | None:
    """The ``(level, json_lines)`` last given to :func:`configure` —
    what a worker process is started with — or None if it never ran."""
    root = logging.getLogger(_ROOT)
    if not root.handlers:
        return None
    return (logging.getLevelName(root.level),
            isinstance(root.handlers[0].formatter, JsonFormatter))

