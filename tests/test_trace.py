"""Trace recorder and exporter correctness.

The acceptance bars from the subsystem's design:

* per-core critical-section spans sum *exactly* to the lock manager's
  measured hold cycles (spans are ``[grant, release)`` from the same
  hook stream the stats come from);
* the FDT decision log reproduces its chosen thread count from its own
  recorded inputs (:func:`replay`);
* the Perfetto export is valid, non-empty ``trace_event`` JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields

import pytest

from repro.fdt.estimators import Decision, Estimates, estimate, estimate_from
from repro.fdt.training import TrainingConfig, TrainingLog, TrainingSample
from repro.fdt.policies import FdtMode, FdtPolicy, StaticPolicy
from repro.fdt.runner import run_application
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.stats import busy_fraction
from repro.trace import (
    STATE_BARRIER_WAIT,
    STATE_COMPUTE,
    STATE_CRITICAL_SECTION,
    TraceRecorder,
    counters_csv,
    decisions_json,
    text_summary,
    to_perfetto,
    write_artifacts,
)
from repro.trace import recorder as recorder_mod
from repro.workloads import get
from tests.programs import traced


def replay(decision: Decision) -> int:
    """Recompute a thread-count decision from its recorded samples.

    Rebuilds a training log from ``decision.samples``, re-runs the
    estimation stage, and applies the record's mode — the returned count
    must equal ``decision.chosen_threads`` for any faithful record of the
    paper's three modes.  A Section 9 policy's record replays to the
    estimate its probe then refined.
    """
    log = TrainingLog(config=TrainingConfig(),
                      total_iterations=max(1, decision.total_iterations),
                      num_cores=decision.num_slots,
                      samples=list(decision.samples))
    return FdtMode(decision.mode).pick(estimate(log, decision.num_slots))


SCALE = 0.1


@pytest.fixture(scope="module")
def pagemine_traced():
    """One traced FDT run of the CS-limited workload, machine included."""
    recorder = TraceRecorder()
    machine = Machine(MachineConfig.asplos08_baseline(), observer=recorder)
    result = run_application(get("PageMine").build(SCALE),
                             FdtPolicy(FdtMode.COMBINED), machine=machine)
    return machine, result


# -- timeline ----------------------------------------------------------------

def test_cs_spans_sum_exactly_to_lock_hold_cycles(pagemine_traced):
    machine, _result = pagemine_traced
    cs_cycles = sum(s.cycles for s in
                    machine.observer.data.spans_of_state(STATE_CRITICAL_SECTION))
    assert cs_cycles > 0
    assert cs_cycles == machine.locks.stats.total_hold_cycles


def test_timeline_covers_every_state(pagemine_traced):
    machine, _result = pagemine_traced
    trace = machine.observer.data
    states = {s.state for s in trace.spans}
    assert STATE_COMPUTE in states
    assert STATE_CRITICAL_SECTION in states
    assert STATE_BARRIER_WAIT in states
    for span in trace.spans:
        assert span.end > span.start
        assert 0 <= span.core < trace.num_cores


def test_counter_samples_land_on_interval_boundaries(pagemine_traced):
    machine, _result = pagemine_traced
    trace = machine.observer.data
    interval = trace.sample_interval
    cycles = [s.cycle for s in trace.samples]
    assert cycles == sorted(cycles)
    assert all(c % interval == 0 for c in cycles)
    # Cumulative counters never decrease.
    for prev, cur in zip(trace.samples, trace.samples[1:]):
        assert cur.bus_busy_cycles >= prev.bus_busy_cycles
        assert cur.retired_instructions >= prev.retired_instructions


def test_max_events_caps_spans_and_counts_drops(monkeypatch):
    monkeypatch.setattr(recorder_mod, "MAX_EVENTS", 10)
    _, trace = traced(get("PageMine").build(SCALE), StaticPolicy(4))
    assert len(trace.spans) == 10
    assert trace.dropped_spans > 0
    assert text_summary(trace).count("dropped") == 1


# -- FDT decision log --------------------------------------------------------

@pytest.mark.parametrize("mode", [FdtMode.SAT, FdtMode.BAT,
                                  FdtMode.COMBINED])
def test_decision_log_replays_to_the_chosen_thread_count(mode):
    result, trace = traced(get("PageMine").build(SCALE), FdtPolicy(mode))
    assert len(trace.decisions) == 1
    record = trace.decisions[0]
    assert record.mode == mode.value
    assert record.samples  # raw training inputs are in the record
    assert replay(record) == record.chosen_threads
    assert record.chosen_threads == result.kernel_infos[0].threads


def test_decision_record_round_trips_through_strict_json(pagemine_traced):
    machine, _result = pagemine_traced
    payload = json.loads(decisions_json(machine.observer.data))
    (decision,) = payload["decisions"]
    record = machine.observer.data.decisions[0]
    assert decision["chosen_threads"] == record.chosen_threads
    assert decision["trained_iterations"] == len(decision["samples"])
    assert decision["t_cs"] == record.estimates.t_cs


def test_decision_to_dict_is_strict_json_through_the_one_codec():
    """No critical section and an idle bus: both real-valued optima are
    infinite, and the record still round-trips as strict JSON."""
    samples = (TrainingSample(0, 100, 0, 0), TrainingSample(1, 100, 0, 0))
    decision = Decision(
        kernel_name="k", policy_name="fdt-sat+bat", mode="sat+bat",
        num_slots=32, total_iterations=64, stop_reason="iteration-cap",
        samples=samples, estimates=estimate_from(0.0, 100.0, 0.0, 32),
        chosen_threads=32, decided_at=1234)
    assert math.isinf(decision.estimates.p_cs_real)
    data = json.loads(json.dumps(decision.to_dict(), allow_nan=False))
    assert data["p_cs_real"] == data["p_bw_real"] == "inf"
    names = [f.name for f in fields(Estimates)]
    assert Estimates.from_dict({n: data[n] for n in names}) \
        == decision.estimates
    assert [TrainingSample(**s) for s in data["samples"]] == list(samples)
    assert data["trained_iterations"] == 2
    rest = {"kernel_name", "policy_name", "mode", "num_slots",
            "total_iterations", "stop_reason", "chosen_threads",
            "decided_at"}
    assert {k: data[k] for k in rest} == {
        k: getattr(decision, k) for k in rest}
    assert replay(decision) == decision.chosen_threads


# -- exporters ---------------------------------------------------------------

def test_perfetto_export_is_valid_and_non_empty(pagemine_traced):
    machine, _result = pagemine_traced
    doc = json.loads(json.dumps(to_perfetto(machine.observer.data)))
    events = doc["traceEvents"]
    assert events
    phases = {e["ph"] for e in events}
    assert {"M", "X", "C", "i"} <= phases
    for e in events:
        if e["ph"] == "X":
            assert e["dur"] > 0 and e["ts"] >= 0


def test_perfetto_cs_spans_match_trace_cs_cycles(pagemine_traced):
    machine, _result = pagemine_traced
    doc = to_perfetto(machine.observer.data)
    cs_total = sum(e["dur"] for e in doc["traceEvents"]
                   if e["ph"] == "X" and e["name"] == STATE_CRITICAL_SECTION)
    assert cs_total == machine.locks.stats.total_hold_cycles


def test_counters_csv_rates_are_sane(pagemine_traced):
    machine, _result = pagemine_traced
    lines = counters_csv(machine.observer.data).strip().splitlines()
    header, rows = lines[0], lines[1:]
    assert header.startswith("cycle,active_cores")
    assert rows
    util_col = header.split(",").index("bus_utilization")
    for row in rows:
        util = float(row.split(",")[util_col])
        assert 0.0 <= util <= 1.0


def test_write_artifacts_produces_all_four_files(tmp_path, pagemine_traced):
    machine, _result = pagemine_traced
    paths = write_artifacts(machine.observer.data, tmp_path / "out")
    assert set(paths) == {"perfetto", "counters", "decisions", "summary"}
    for path in paths.values():
        assert path.exists() and path.stat().st_size > 0
    json.loads(paths["perfetto"].read_text())  # strict JSON


# -- config / helpers --------------------------------------------------------

def test_busy_fraction_clamps_and_handles_empty_intervals():
    assert busy_fraction(10, 0) == 0.0
    assert busy_fraction(10, -5) == 0.0
    assert busy_fraction(0, 100) == 0.0
    assert busy_fraction(50, 100) == 0.5
    assert busy_fraction(200, 100) == 1.0  # straddling transfers clamp


def test_bus_stats_and_run_result_share_the_utilization_definition():
    from repro.sim.bus import BusStats
    from repro.sim.stats import RunResult
    stats = BusStats(cycles_per_line=32, transfers=2)
    result = RunResult(cycles=128, busy_core_cycles=0, spin_core_cycles=0,
                       bus_busy_cycles=64, bus_transfers=2, l3_misses=0,
                       l3_accesses=0, retired_instructions=0,
                       lock_acquisitions=0)
    assert stats.utilization(128) == result.bus_utilization == 0.5
    assert stats.utilization(0) == 0.0


def test_run_result_to_dict_carries_derived_metrics():
    from repro.sim.stats import RunResult
    result = RunResult(cycles=1000, busy_core_cycles=2400,
                       spin_core_cycles=300, bus_busy_cycles=120,
                       bus_transfers=4, l3_misses=3, l3_accesses=9,
                       retired_instructions=5000, lock_acquisitions=7)
    data = result.to_dict()
    assert data["spin_core_cycles"] == 300
    assert data["ipc"] == result.ipc == 5.0
    assert data["energy"] == result.energy == 2400.0
    assert data["power"] == result.power == 2.4
    assert data["bus_utilization"] == result.bus_utilization
