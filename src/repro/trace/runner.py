"""Record a trace for one workload run: the ``repro trace`` entry point.

:func:`run_traced` is the programmatic mirror of the CLI: build a
machine with a :class:`~repro.trace.recorder.TraceRecorder`, run the
application under a policy, and hand back both the normal
:class:`~repro.fdt.runner.AppRunResult` and the recorded
:class:`~repro.trace.data.Trace`.  Because the tracer is a pure
observer, the result is bit-identical to an untraced run of the same
spec.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fdt.policies import ThreadingPolicy
from repro.fdt.runner import Application, AppRunResult, run_application
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.trace.data import Trace
from repro.trace.recorder import SAMPLE_INTERVAL, TraceRecorder


@dataclass(frozen=True, slots=True)
class TracedRun:
    """An application run plus the trace it recorded."""

    result: AppRunResult
    trace: Trace


def run_traced(app: Application, policy: ThreadingPolicy,
               config: MachineConfig | None = None,
               sample_interval: int = SAMPLE_INTERVAL) -> TracedRun:
    """Run ``app`` under ``policy`` on a machine that records a trace.

    Args:
        app: the application to execute.
        policy: threading policy driving the run.
        config: machine configuration (baseline when omitted).
        sample_interval: cycles between counter samples.

    Returns:
        The run result and the recorded trace.
    """
    recorder = TraceRecorder(sample_interval)
    with Machine(config, observers=[recorder]) as machine:
        result = run_application(app, policy, machine=machine)
    return TracedRun(result=result, trace=recorder.data)
