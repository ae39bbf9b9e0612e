"""Span-based tracing with explicit trace/span-ID propagation.

The cycle-level tracer (:mod:`repro.trace`) answers "what did the
simulated machine do, cycle by cycle"; this module answers "what did
the *host* pipeline do with a request" — serve request → schema
canonicalization → cache probe → batch dispatch → simulation run —
as a tree of wall-clock spans sharing one trace ID.

Propagation is explicit and two-layered:

* within one thread (and across ``await`` points of one asyncio task)
  the current :class:`TraceContext` lives in a ``contextvars``
  variable; :class:`span` opens a child of it;
* across threads and queues — the serving pipeline hands a request to
  a worker task and then to an executor thread — the context is
  carried by hand and re-entered with :func:`use_context`, because
  executors do not copy context.

A finished span is kept nowhere in the process.  When a sink is set
(``recorder().set_sink(path)`` or the ``REPRO_OBS_SPANS`` environment
variable) it is built into a :class:`Span` and appended to a
:class:`~repro.obs.jsonl.JsonLines` file, as run-registry rows are, and
read back with ``read_jsonl(path, Span.from_dict)``; with no sink it is
not built at all, so a serving process holds nothing per span.

Everything here is a pure observer of host time: nothing reads or
writes simulator state, so simulated cycles are bit-identical with
tracing active or not (``tests/test_obs_parity.py``).
"""

from __future__ import annotations

import contextvars
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import time
from typing import Iterator

from repro.obs.jsonl import JsonLines


def new_trace_id() -> str:
    return os.urandom(16).hex()


def new_span_id() -> str:
    return os.urandom(8).hex()


@dataclass(frozen=True, slots=True)
class TraceContext:
    """The identity a span publishes and its children inherit."""

    trace_id: str
    span_id: str
    parent_id: str = ""
    #: Attributes of the span this context opened.  The block may add
    #: what it only learns on the way (``ctx.attrs["tier"] = "disk"``);
    #: they are the span's own and are not inherited by children.
    attrs: dict = field(default_factory=dict, compare=False, repr=False)

    def child(self) -> "TraceContext":
        return TraceContext(trace_id=self.trace_id, span_id=new_span_id(),
                            parent_id=self.span_id)

    @classmethod
    def root(cls, trace_id: str | None = None) -> "TraceContext":
        return cls(trace_id=trace_id or new_trace_id(),
                   span_id=new_span_id())


@dataclass(frozen=True, slots=True)
class Span:
    """One finished operation on the host timeline."""

    trace_id: str
    span_id: str
    parent_id: str
    name: str
    #: Wall-clock bounds (``time.time`` epoch seconds).
    start: float
    end: float
    status: str = "ok"
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def to_dict(self) -> dict:
        # ``duration`` is derived from the rounded bounds, so it is a
        # function of the serialized fields and survives a round trip.
        start, end = round(self.start, 6), round(self.end, 6)
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": start,
            "end": end,
            "duration": round(max(0.0, end - start), 6),
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(trace_id=data["trace_id"], span_id=data["span_id"],
                   parent_id=data.get("parent_id", ""), name=data["name"],
                   start=float(data["start"]), end=float(data["end"]),
                   status=data.get("status", "ok"),
                   attrs=dict(data.get("attrs", {})))


class SpanRecorder:
    """Where finished spans go: a JSON-lines sink, or nowhere."""

    def __init__(self) -> None:
        self.sink: JsonLines | None = None
        self.set_sink(os.environ.get("REPRO_OBS_SPANS") or None)

    def set_sink(self, path: str | Path | None) -> None:
        """Append finished spans as JSON lines to ``path`` (None stops).

        A failed line is dropped, warned once per episode and counted;
        a new sink starts a new episode.
        """
        self.sink = None if path is None else JsonLines(path, "spans")


_recorder = SpanRecorder()

_current: contextvars.ContextVar[TraceContext | None] = \
    contextvars.ContextVar("repro_obs_trace_context", default=None)


def recorder() -> SpanRecorder:
    """The process-global span recorder: where its sink is set."""
    return _recorder


def current_context() -> TraceContext | None:
    """The active trace context of this thread/task, if any."""
    return _current.get()


@contextmanager
def use_context(ctx: TraceContext | None) -> Iterator[TraceContext | None]:
    """Re-enter a context carried across a thread or queue boundary."""
    token = _current.set(ctx)
    try:
        yield ctx
    finally:
        _current.reset(token)


class span:
    """Open a span: child of the current context, or a new trace root.

    The parent is read on entry; when the block exits the span is
    written to the sink, if one is set, and an escaping exception marks
    it ``status="error"`` (and re-raises).  Only a context manager, not
    a decorator.
    """

    __slots__ = ("_name", "_attrs", "_ctx", "_token", "_started")

    def __init__(self, name: str, **attrs: object) -> None:
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> TraceContext:
        parent = _current.get()
        ctx = parent.child() if parent is not None else TraceContext.root()
        ctx.attrs.update(self._attrs)
        self._ctx = ctx
        self._token = _current.set(ctx)
        self._started = time()
        return ctx

    def __exit__(self, exc_type: type[BaseException] | None,
                 *exc_info: object) -> None:
        _current.reset(self._token)
        sink = _recorder.sink
        if sink is None:
            return
        ctx = self._ctx
        sink.append(Span(
            trace_id=ctx.trace_id, span_id=ctx.span_id,
            parent_id=ctx.parent_id, name=self._name,
            start=self._started, end=time(),
            status="ok" if exc_type is None else "error",
            attrs=ctx.attrs).to_dict())
