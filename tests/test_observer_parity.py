"""Observer purity: no attached observer list changes simulated results.

The repo's one parity matrix for in-sim observers
(:mod:`repro.sim.observer`): for a CS-limited, a BW-limited, and a
tie-order-sensitive workload (Transpose — the one whose cycles move
when the core steps Compute ops one by one instead of coalescing them),
under both the static and the FDT policy, the full
:class:`~repro.fdt.runner.AppRunResult` — every counter, every cycle —
is bit-identical whatever list is handed to ``Machine(config,
observers=[...])``: nothing, the sanitizer, the tracer, both, or those
plus a third plug-in this file defines (which is all a new plug-in
takes — no edit under ``src/repro/sim``), or a one-method tap on the
FDT decision record.  Host telemetry on/off is a different axis
(``test_obs_parity.py``), as is fast vs reference
(``test_perf_parity.py``).
"""

from __future__ import annotations

import functools
from dataclasses import fields

import pytest

from repro.check import ThreadSanitizer
from repro.fdt.policies import FdtMode, FdtPolicy, StaticPolicy
from repro.fdt.runner import AppRunResult, run_application
from repro.jobs import JobRunner, JobSpec, PolicySpec, WorkloadRef
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.observer import FanOut, SimObserver
from repro.trace import TraceRecorder, run_traced
from repro.trace import recorder as recorder_mod
from repro.workloads import get

from tests.test_trace import replay

BASE = MachineConfig.asplos08_baseline()
WORKLOADS = {"PageMine": 0.1, "ED": 0.1, "Transpose": 0.05}
POLICIES = {"static-32": lambda: StaticPolicy(32),
            "fdt": lambda: FdtPolicy(FdtMode.COMBINED)}


class EventCounter(SimObserver):
    """A partial plug-in: overrides three events, inherits the rest."""

    def __init__(self) -> None:
        self.machine = None
        self.regions = self.accesses = 0

    def on_attach(self, machine) -> None:
        self.machine = machine

    def on_region_begin(self, num_threads, now) -> None:
        self.regions += 1

    def on_access(self, agent, addr, is_store, now) -> None:
        self.accesses += 1


class DecisionTap(SimObserver):
    """A one-method plug-in: the FDT decision is its single argument."""

    def __init__(self) -> None:
        self.decisions = []

    def on_fdt_decision(self, decision) -> None:
        self.decisions.append(decision)


#: What each plug-in must show after a run to prove it observed it.
SAW_THE_RUN = {ThreadSanitizer: lambda o: o._epoch > 0,
               TraceRecorder: lambda o: o.data.spans and o.data.num_cores == 32,
               EventCounter: lambda o: o.machine and o.regions and o.accesses,
               DecisionTap: lambda o: all(replay(d) == d.chosen_threads
                                          for d in o.decisions)}
OBSERVERS = {"none": (),
             "sanitizer": (ThreadSanitizer,),
             "tracer": (TraceRecorder,),
             "both": (ThreadSanitizer, TraceRecorder),
             "both+third": (ThreadSanitizer, TraceRecorder, EventCounter),
             "decision-tap": (DecisionTap,)}


@functools.cache
def _plain(name: str, policy: str) -> AppRunResult:
    """The no-observer reference run of one matrix cell."""
    return run_application(get(name).build(WORKLOADS[name]),
                           POLICIES[policy](), BASE)


@pytest.mark.parametrize("observers", OBSERVERS)
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", WORKLOADS)
def test_observer_subset_preserves_results(name, policy, observers):
    attached = [plugin() for plugin in OBSERVERS[observers]]
    machine = Machine(BASE, observers=attached)
    observed = run_application(get(name).build(WORKLOADS[name]),
                               POLICIES[policy](), machine=machine)
    assert observed == _plain(name, policy)  # full dataclass equality
    # ... and every attached plug-in did observe the run.
    for plugin in attached:
        assert SAW_THE_RUN[type(plugin)](plugin)
        if isinstance(plugin, DecisionTap):  # one record per FDT kernel
            assert [(d.kernel_name, d.chosen_threads)
                    for d in plugin.decisions] == [
                (k.kernel_name, k.threads) for k in observed.kernel_infos
                if policy == "fdt"]


def test_observer_slot_is_none_the_observer_or_a_fan_out():
    machine = Machine(BASE)
    assert machine.observer is None and machine.events.sampler is None
    assert not {"sanitizer", "trace"} & {f.name for f in fields(MachineConfig)}
    one = EventCounter()
    assert Machine(BASE, observers=[one]).observer is one
    recorder = TraceRecorder()
    machine = Machine(BASE, observers=[one, recorder])
    assert isinstance(machine.observer, FanOut)
    assert machine.observer.observers == (one, recorder)
    assert machine.events.sampler is recorder  # installed by on_attach
    # An observer that is not the tracer installs no sampler.
    assert Machine(BASE, observers=[one]).events.sampler is None


def test_transpose_reference_cycles_pinned():
    """The cell that failed while the tracer switched coalescing off
    (131792 traced, 131790 untraced); the matrix rows above hold every
    observer subset equal to this run."""
    assert _plain("Transpose", "static-32").cycles == 131790


#: id -> (sample_interval, MIN_MEM_STALL_CYCLES, MAX_EVENTS, the Trace
#: field that must come out non-empty / non-zero).  Each row pushes one
#: recorder feature past its default.
TRACE_FEATURES = {
    "timeline": (recorder_mod.SAMPLE_INTERVAL, 0, recorder_mod.MAX_EVENTS,
                 "spans"),
    "counters": (10, recorder_mod.MIN_MEM_STALL_CYCLES,
                 recorder_mod.MAX_EVENTS, "samples"),
    "decisions": (recorder_mod.SAMPLE_INTERVAL,
                  recorder_mod.MIN_MEM_STALL_CYCLES, recorder_mod.MAX_EVENTS,
                  "decisions"),
    "interval-97": (97, recorder_mod.MIN_MEM_STALL_CYCLES,
                    recorder_mod.MAX_EVENTS, "samples"),
    "max-events-10": (97, recorder_mod.MIN_MEM_STALL_CYCLES, 10,
                      "dropped_spans"),
}


@pytest.mark.parametrize("feature", list(TRACE_FEATURES))
@pytest.mark.parametrize("name", ["PageMine", "ED"])
def test_every_trace_feature_toggle_preserves_results(name, feature,
                                                      monkeypatch):
    """Each recorder feature, pushed past its default, records something
    and leaves the simulation untouched."""
    interval, min_stall, max_events, recorded = TRACE_FEATURES[feature]
    monkeypatch.setattr(recorder_mod, "MIN_MEM_STALL_CYCLES", min_stall)
    monkeypatch.setattr(recorder_mod, "MAX_EVENTS", max_events)
    traced = run_traced(get(name).build(WORKLOADS[name]),
                        POLICIES["fdt"](), BASE, sample_interval=interval)
    assert getattr(traced.trace, recorded)
    assert traced.result == _plain(name, "fdt")


def test_traced_jobs_match_untraced_jobs(tmp_path):
    """The jobs layer: tracing a batch never changes its results."""
    specs = [JobSpec(workload=WorkloadRef(name="PageMine", scale=0.1),
                     policy=PolicySpec.static(t), config=BASE)
             for t in (1, 2)]
    plain = JobRunner().run(specs)
    traced_runner = JobRunner(trace_dir=str(tmp_path / "traces"))
    assert traced_runner.run(specs) == plain
    for entry, spec in zip(traced_runner.manifest.entries, specs):
        assert entry.trace_path.endswith(spec.key())
