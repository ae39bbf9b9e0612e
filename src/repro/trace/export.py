"""Trace exporters: Perfetto/Chrome ``trace_event`` JSON, CSV, text.

Three renderings of one :class:`~repro.trace.data.Trace`:

* :func:`to_perfetto` / :func:`perfetto_json` — the Chrome trace-event
  format (https://ui.perfetto.dev loads it directly): one track per
  core carrying the state timeline as complete (``ph="X"``) events,
  counter tracks (``ph="C"``) for the sampled series, and instant
  events for region/kernel boundaries and FDT decisions.  Timestamps
  are simulated cycles passed through as microseconds — 1 us in the
  viewer is 1 cpu cycle.
* :func:`counters_csv` — the interval-sampled counter time series with
  per-interval rates (bus utilization, L3 miss rate, IPC) derived by
  differencing the cumulative samples.
* :func:`text_summary` — a terminal-friendly digest: where cycles went
  per state, counter totals, and every FDT decision with its inputs.

:func:`write_artifacts` writes all of them (plus the decision log as
standalone JSON) into a directory.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.trace.data import SPAN_STATES, Trace

#: Artifact filenames written by :func:`write_artifacts`.
PERFETTO_FILE = "trace.json"
COUNTERS_FILE = "counters.csv"
DECISIONS_FILE = "decisions.json"
SUMMARY_FILE = "summary.txt"

_PID = 0  # one simulated machine = one Perfetto "process"


def to_perfetto(trace: Trace) -> dict:
    """Render the trace as a Chrome/Perfetto ``trace_event`` document."""
    events: list[dict] = [{
        "name": "process_name", "ph": "M", "pid": _PID,
        "args": {"name": "simulated CMP"},
    }]
    for core in range(trace.num_cores):
        events.append({
            "name": "thread_name", "ph": "M", "pid": _PID, "tid": core,
            "args": {"name": f"core {core}"},
        })
        events.append({
            "name": "thread_sort_index", "ph": "M", "pid": _PID,
            "tid": core, "args": {"sort_index": core},
        })
    for span in trace.spans:
        events.append({
            "name": span.state, "cat": "timeline", "ph": "X",
            "pid": _PID, "tid": span.core,
            "ts": span.start, "dur": span.cycles,
            "args": {"agent": span.agent, "detail": span.detail},
        })
    for sample in trace.samples:
        events.append({
            "name": "active_cores", "cat": "counters", "ph": "C",
            "pid": _PID, "ts": sample.cycle,
            "args": {"active_cores": sample.active_cores},
        })
        events.append({
            "name": "bus_busy_cycles", "cat": "counters", "ph": "C",
            "pid": _PID, "ts": sample.cycle,
            "args": {"bus_busy_cycles": sample.bus_busy_cycles},
        })
    for mark in trace.marks:
        events.append({
            "name": mark.name, "cat": mark.kind, "ph": "i",
            "pid": _PID, "ts": mark.cycle, "s": "g",
            "args": dict(mark.args),
        })
    for decision in trace.decisions:
        events.append({
            "name": f"FDT decision: {decision.kernel_name}",
            "cat": "fdt", "ph": "i", "pid": _PID,
            "ts": decision.decided_at, "s": "g",
            "args": decision.to_dict(),
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "tool": "repro.trace",
            "time_unit": "1 viewer us = 1 simulated cpu cycle",
            "dropped_spans": trace.dropped_spans,
            "dropped_samples": trace.dropped_samples,
            "final_cycle": trace.final_cycle,
        },
    }


def perfetto_json(trace: Trace) -> str:
    return json.dumps(to_perfetto(trace), indent=None,
                      separators=(",", ":"))


def counters_csv(trace: Trace) -> str:
    """The sampled counter series as CSV with per-interval rates."""
    header = ("cycle,active_cores,bus_busy_cycles,bus_utilization,"
              "bus_transfers,l3_misses,l3_accesses,l3_miss_rate,"
              "lock_acquisitions,retired_instructions,ipc")
    lines = [header]
    prev_cycle = 0
    prev_busy = 0
    prev_misses = 0
    prev_accesses = 0
    prev_retired = 0
    for s in trace.samples:
        interval = s.cycle - prev_cycle
        bus_util = ((s.bus_busy_cycles - prev_busy) / interval
                    if interval > 0 else 0.0)
        d_accesses = s.l3_accesses - prev_accesses
        miss_rate = ((s.l3_misses - prev_misses) / d_accesses
                     if d_accesses > 0 else 0.0)
        ipc = ((s.retired_instructions - prev_retired) / interval
               if interval > 0 else 0.0)
        lines.append(
            f"{s.cycle},{s.active_cores},{s.bus_busy_cycles},"
            f"{min(1.0, bus_util):.6f},{s.bus_transfers},{s.l3_misses},"
            f"{s.l3_accesses},{miss_rate:.6f},{s.lock_acquisitions},"
            f"{s.retired_instructions},{ipc:.6f}")
        prev_cycle = s.cycle
        prev_busy = s.bus_busy_cycles
        prev_misses = s.l3_misses
        prev_accesses = s.l3_accesses
        prev_retired = s.retired_instructions
    return "\n".join(lines) + "\n"


def decisions_json(trace: Trace) -> str:
    """The FDT decision log as standalone strict JSON."""
    return json.dumps({"decisions": [d.to_dict()
                                     for d in trace.decisions]},
                      indent=2)


def text_summary(trace: Trace) -> str:
    """A terminal-friendly digest of the recorded trace."""
    out: list[str] = []
    out.append(f"trace: {len(trace.spans)} spans, "
               f"{len(trace.samples)} counter samples, "
               f"{len(trace.marks)} marks, "
               f"{len(trace.decisions)} FDT decision(s); "
               f"final cycle {trace.final_cycle:,}")
    if trace.dropped_spans or trace.dropped_samples:
        out.append(f"  (dropped past max_events: {trace.dropped_spans} "
                   f"spans, {trace.dropped_samples} samples)")

    out.append("")
    out.append("cycles by state (all cores):")
    for state in SPAN_STATES:
        spans = trace.spans_of_state(state)
        if not spans:
            continue
        cycles = sum(s.cycles for s in spans)
        cores = len({s.core for s in spans})
        out.append(f"  {state:<18} {cycles:>14,} cycles in "
                   f"{len(spans):>7,} spans on {cores} core(s)")

    if trace.samples:
        last = trace.samples[-1]
        peak = max(s.active_cores for s in trace.samples)
        out.append("")
        out.append(f"counters at last sample (cycle {last.cycle:,}): "
                   f"bus busy {last.bus_busy_cycles:,}, "
                   f"L3 {last.l3_misses:,}/{last.l3_accesses:,} misses, "
                   f"{last.lock_acquisitions:,} lock acquisitions; "
                   f"peak active cores {peak}")

    for d in trace.decisions:
        est = d.estimates
        out.append("")
        out.append(f"FDT decision for {d.kernel_name} ({d.mode}): "
                   f"{d.chosen_threads} threads at cycle "
                   f"{d.decided_at:,}")
        out.append(f"  trained {d.trained_iterations} iters "
                   f"({d.stop_reason}); T_CS {est.t_cs:.1f}, "
                   f"T_NoCS {est.t_nocs:.1f}, BU_1 {est.bu1:.2%}")
        out.append(f"  P_CS {est.p_cs}, P_BW {est.p_bw}, P_FDT {est.p_fdt} "
                   f"(clamp {d.num_slots})")
    return "\n".join(out)


def write_artifacts(trace: Trace, out_dir: str | Path) -> dict[str, Path]:
    """Write every exporter's output into ``out_dir``.

    Returns the artifact paths keyed by kind (``perfetto``,
    ``counters``, ``decisions``, ``summary``).
    """
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    paths = {
        "perfetto": root / PERFETTO_FILE,
        "counters": root / COUNTERS_FILE,
        "decisions": root / DECISIONS_FILE,
        "summary": root / SUMMARY_FILE,
    }
    paths["perfetto"].write_text(perfetto_json(trace), encoding="utf-8")
    paths["counters"].write_text(counters_csv(trace), encoding="utf-8")
    paths["decisions"].write_text(decisions_json(trace) + "\n",
                                  encoding="utf-8")
    paths["summary"].write_text(text_summary(trace) + "\n",
                                encoding="utf-8")
    return paths
