"""Unified telemetry spine: metrics, spans, structured logs, provenance.

Stdlib-only and a pure observer throughout (simulated cycles are
bit-identical with obs on or off — ``tests/test_obs_parity.py``), with
one mechanism per job:

* :mod:`repro.obs.registry` — three thread-safe instruments (a
  :class:`Counter`, optionally over one label, a :class:`Gauge`, a
  :class:`Histogram`) in a :class:`MetricsRegistry`; serve's
  ``/metrics`` endpoint is a renderer over it, and jobs / FDT / faults
  register their own instruments into the process-global
  :func:`default_registry`.
* :mod:`repro.obs.tracing` — span-based tracing with explicit
  trace/span-ID propagation through serve → jobs → simulation,
  exported as JSON lines.
* :mod:`repro.obs.log` — per-subsystem structured logging (JSON or
  human lines), configured once by the global ``--log-level`` /
  ``--log-json`` flags and inherited by worker processes.
* :mod:`repro.obs.runreg` — the persistent run registry under the
  cache dir: one provenance row per resolved spec, queryable with
  ``repro obs list | show | report``.
* :mod:`repro.obs.jsonl` — the one JSON-lines append, degrade and
  read that the run registry and the span sink share.

See ``docs/obs.md``.
"""

from repro.obs.log import configure as configure_logging
from repro.obs.log import get_logger
from repro.obs.registry import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    reset_default_registry,
)
from repro.obs.runreg import (
    RunRecord,
    RunRegistry,
    default_runreg_dir,
    host_fingerprint,
)
from repro.obs.tracing import (
    Span,
    SpanRecorder,
    TraceContext,
    current_context,
    recorder,
    span,
    use_context,
)

__all__ = [
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunRecord",
    "RunRegistry",
    "Span",
    "SpanRecorder",
    "TraceContext",
    "configure_logging",
    "current_context",
    "default_registry",
    "default_runreg_dir",
    "get_logger",
    "host_fingerprint",
    "recorder",
    "reset_default_registry",
    "span",
    "use_context",
]
