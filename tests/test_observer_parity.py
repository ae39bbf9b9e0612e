"""Observer purity: no attached observer subset changes simulated results.

The repo's one parity matrix for in-sim observers
(:mod:`repro.sim.observer`): for a CS-limited, a BW-limited, and a
tie-order-sensitive workload (Transpose — the one whose cycles move
when the core steps Compute ops one by one instead of coalescing them),
under both the static and the FDT policy, the full
:class:`~repro.fdt.runner.AppRunResult` — every counter, every cycle —
is bit-identical whether the sanitizer, the tracer, both, or neither is
attached.  Host telemetry on/off is a different axis
(``test_obs_parity.py``), as is fast vs reference (``test_perf_parity.py``).
"""

from __future__ import annotations

import functools

import pytest

from repro.fdt.policies import FdtMode, FdtPolicy, StaticPolicy
from repro.fdt.runner import AppRunResult, run_application
from repro.jobs import JobRunner, JobSpec, PolicySpec, WorkloadRef
from repro.sim.config import MachineConfig, TraceConfig
from repro.sim.machine import Machine
from repro.trace import run_traced
from repro.workloads import get

BASE = MachineConfig.asplos08_baseline()
WORKLOADS = {"PageMine": 0.1, "ED": 0.1, "Transpose": 0.05}
POLICIES = {"static-32": lambda: StaticPolicy(32),
            "fdt": lambda: FdtPolicy(FdtMode.COMBINED)}
OBSERVERS = {"none": BASE,
             "sanitizer": BASE.with_sanitizer(),
             "tracer": BASE.with_trace(),
             "both": BASE.with_sanitizer().with_trace()}


@functools.cache
def _plain(name: str, policy: str) -> AppRunResult:
    """The no-observer reference run of one matrix cell."""
    return run_application(get(name).build(WORKLOADS[name]),
                           POLICIES[policy](), BASE)


@pytest.mark.parametrize("observers", OBSERVERS)
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", WORKLOADS)
def test_observer_subset_preserves_results(name, policy, observers):
    machine = Machine(OBSERVERS[observers])
    observed = run_application(get(name).build(WORKLOADS[name]),
                               POLICIES[policy](), machine=machine)
    assert observed == _plain(name, policy)  # full dataclass equality
    # ... and each configured plug-in did observe the run.
    assert (machine.sanitizer is not None) == (observers in ("sanitizer", "both"))
    assert (machine.trace is not None) == (observers in ("tracer", "both"))
    if machine.sanitizer is not None:
        assert machine.sanitizer.epoch > 0
    if machine.trace is not None:
        assert machine.trace.data.spans


def test_transpose_reference_cycles_pinned():
    """The cell that failed while the tracer switched coalescing off
    (131792 traced, 131790 untraced); the matrix rows above hold every
    observer subset equal to this run."""
    assert _plain("Transpose", "static-32").cycles == 131790


@pytest.mark.parametrize("tc", [
    TraceConfig(timeline=True, counters=False, decisions=False),
    TraceConfig(timeline=False, counters=True, decisions=False),
    TraceConfig(timeline=False, counters=False, decisions=True),
    TraceConfig(sample_interval=97),
    TraceConfig(max_events=10),
], ids=["timeline", "counters", "decisions", "interval-97", "max-events-10"])
@pytest.mark.parametrize("name", ["PageMine", "ED"])
def test_every_trace_feature_toggle_preserves_results(name, tc):
    """Each recorder feature, alone, leaves the simulation untouched."""
    traced = run_traced(get(name).build(WORKLOADS[name]),
                        POLICIES["fdt"](), BASE, trace_config=tc)
    assert traced.result == _plain(name, "fdt")


def test_disabled_configs_attach_no_observer():
    machine = Machine(BASE.with_trace(TraceConfig(enabled=False)))
    assert machine.trace is None
    assert machine.observer is None
    assert machine.events.sampler is None


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
