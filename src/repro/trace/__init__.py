"""Cycle-level tracing: state timelines, counter series, decision logs.

The paper's argument is about *when* time goes — cycles inside critical
sections versus outside (SAT, Eq. 3) and cycles the off-chip bus is
busy (BAT, Eq. 5) — so this package records exactly that, below the
end-of-run aggregates of :class:`~repro.sim.stats.RunResult`:

* a **per-core state timeline** (compute / critical-section /
  lock-spin / barrier-wait / memory-stall spans);
* **interval-sampled counter time series** (active cores, bus
  occupancy, L3 misses, lock acquisitions every N cycles);
* an **FDT decision log** capturing each training run's samples, the
  derived T_CS/T_NoCS/BU_1, the Eq. 3/5/7 arithmetic, and the chosen
  thread count — the policies' own
  :class:`~repro.fdt.estimators.Decision` records, replayable from
  their own recorded inputs.

Hand a :class:`TraceRecorder` to ``Machine(config, observers=[...])``
and the machine records while it runs; the tracer is a pure observer,
so simulated cycles are bit-identical with it attached or not.  Export
its ``.data`` with :func:`~repro.trace.export.write_artifacts`
(Perfetto ``trace_event`` JSON, CSV counter series, decision-log JSON,
text summary), or from the CLI::

    python -m repro trace PageMine --policy fdt --out traces/pagemine
    python -m repro run ED --policy fdt --trace traces/ed

Typical programmatic use::

    from repro.fdt.policies import FdtPolicy
    from repro.trace import run_traced, text_summary, write_artifacts
    from repro.workloads import get

    traced = run_traced(get("PageMine").build(0.5), FdtPolicy())
    print(text_summary(traced.trace))
    write_artifacts(traced.trace, "traces/pagemine")
"""

from repro import _exports

#: Cycles between counter samples unless the caller names another
#: spacing (``repro trace --sample-interval``).
SAMPLE_INTERVAL = 1000

_EXPORTS = {
    "CounterSample": "data",
    "Mark": "data",
    "SPAN_STATES": "data",
    "STATE_BARRIER_WAIT": "data",
    "STATE_COMPUTE": "data",
    "STATE_CRITICAL_SECTION": "data",
    "STATE_LOCK_SPIN": "data",
    "STATE_MEMORY_STALL": "data",
    "Span": "data",
    "Trace": "data",
    "TraceRecorder": "recorder",
    "TracedRun": "runner",
    "counters_csv": "export",
    "decisions_json": "export",
    "perfetto_json": "export",
    "run_traced": "runner",
    "text_summary": "export",
    "to_perfetto": "export",
    "write_artifacts": "export",
}

__all__ = sorted(_EXPORTS)

__getattr__ = _exports(__name__, _EXPORTS)
