"""Test instruments: materialize a finite op stream and check it, and
drive a team kernel's iterations without a machine.

Workload tests run a kernel's op stream through :func:`validate_program`
to check what a workload emits; the simulator itself never validates a
program (a hot kernel stays a generator).  :func:`drive_team` makes every
``team_iteration`` call a run would make, so its real values and op
tables can be checked directly.  :func:`holder`, :func:`waiters` and
:func:`pending` read the lock and barrier managers' state, which the
simulator itself never asks for; :class:`DecisionTap` keeps FDT
decisions as an observer, and :class:`FanOut` attaches several to one
machine's single observer slot; :func:`traced` runs an application with a
trace recorder attached; :func:`synthetic_spec` and
:func:`synthetic_body` are the small job host-layer tests submit; :func:`span_from_dict` reads a span
sink back; :func:`served` and :func:`metrics_text` are one request to a
test server; and :func:`load` imports code that lives beside the
package (an example, a benchmark module) by its path.
"""

from __future__ import annotations

import importlib.util
import multiprocessing
import sys
from pathlib import Path
from typing import Any, Iterable

import pytest

from repro.errors import ProgramError
from repro.isa.ops import (
    BarrierWait,
    Compute,
    Load,
    Lock,
    Op,
    ReadCounter,
    Store,
    Unlock,
)
from repro.fdt.runner import run_application
from repro.jobs import JobSpec, PolicySpec, WorkloadRef
from repro.obs.tracing import Span
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.observer import SimObserver
from repro.trace import TraceRecorder

_VALID_OP_TYPES = (
    Compute,
    Load,
    Store,
    Lock,
    Unlock,
    BarrierWait,
    ReadCounter,
)


def validate_program(ops: Iterable[Op]) -> list[Op]:
    """Materialize and sanity-check a (finite) op sequence.

    Checks performed:

    * every item is a known op type;
    * lock/unlock pairs are balanced and properly nested per lock id;
    * no lock is released by a program that never acquired it.

    Returns the materialized list.

    Raises:
        ProgramError: on any violation.
    """
    held: list[int] = []
    out: list[Op] = []
    for i, op in enumerate(ops):
        if not isinstance(op, _VALID_OP_TYPES):
            raise ProgramError(f"op {i} is not a valid instruction: {op!r}")
        if isinstance(op, Lock):
            held.append(op.lock_id)
        elif isinstance(op, Unlock):
            if not held:
                raise ProgramError(f"op {i} releases lock {op.lock_id} while holding none")
            if held[-1] != op.lock_id:
                raise ProgramError(
                    f"op {i} releases lock {op.lock_id} but innermost held "
                    f"lock is {held[-1]} (locks held: {held})"
                )
            held.pop()
        out.append(op)
    if held:
        raise ProgramError(f"program ended while still holding locks {held}")
    return out


def drive_team(kernel: Any, team: int = 32) -> None:
    """Call every iteration's share for every thread, iteration-major."""
    for iteration in range(kernel.total_iterations):
        for tid in range(team):
            kernel.team_iteration(iteration, tid, team)


def holder(locks: Any, lock_id: int) -> int | None:
    """The core holding ``lock_id`` in a ``LockManager`` (None when free)."""
    state = locks._locks.get(lock_id)
    return state.holder if state else None


def waiters(locks: Any, lock_id: int) -> int:
    """How many cores a ``LockManager`` has queued on ``lock_id``."""
    state = locks._locks.get(lock_id)
    return len(state.waiters) if state else 0


def pending(barriers: Any, barrier_id: int) -> int:
    """How many cores wait at ``barrier_id`` in a ``BarrierManager``."""
    return len(barriers._barriers.get(barrier_id, ()))


class DecisionTap(SimObserver):
    """A one-method plug-in: keeps each FDT decision, its one argument."""

    def __init__(self) -> None:
        self.decisions = []

    def on_fdt_decision(self, decision) -> None:
        self.decisions.append(decision)


class FanOut(SimObserver):
    """Forwards every event to each of ``observers``, in order: several
    plug-ins on one ``Machine(config, observer=...)``."""

    def __init__(self, *observers: SimObserver) -> None:
        self.observers = observers


def _forwarder(event: str):
    def forward(self: FanOut, *args) -> None:
        for observer in self.observers:
            getattr(observer, event)(*args)
    forward.__name__ = event
    return forward


for _event in [n for n in vars(SimObserver) if n.startswith("on_")]:
    setattr(FanOut, _event, _forwarder(_event))


def traced(app: Any, policy: Any,
           config: MachineConfig | None = None) -> tuple[Any, Any]:
    """``(AppRunResult, Trace)`` of ``app`` run under ``policy`` on a
    machine with a :class:`~repro.trace.TraceRecorder` attached, the way
    ``repro run --trace`` and ``JobSpec.run(trace_dir)`` build it."""
    recorder = TraceRecorder()
    with Machine(config, observer=recorder) as machine:
        result = run_application(app, policy, machine=machine)
    return result, recorder.data


def synthetic_spec(iterations: int = 8, threads: int = 2,
                   config: MachineConfig | None = None,
                   policy: str | None = None) -> JobSpec:
    """The small synthetic job the host-layer tests submit: a static team
    of ``threads`` (or the ``policy`` kind), on the small machine unless
    ``config`` says otherwise."""
    return JobSpec(
        workload=WorkloadRef.synthetic(cs_fraction=0.2, bus_lines=2,
                                       iterations=iterations,
                                       compute_instr=200),
        policy=(PolicySpec(kind=policy) if policy is not None
                else PolicySpec.static(threads)),
        config=config or MachineConfig.small())


def synthetic_body(iterations: int = 8, threads: int = 2) -> dict:
    """:func:`synthetic_spec` as a ``/v1/run`` request body."""
    return {"synthetic": {"cs_fraction": 0.2, "bus_lines": 2,
                          "iterations": iterations, "compute_instr": 200},
            "policy": "static", "threads": threads}


#: Crash and fault tests patch module state into forked pool workers.
fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the test patches module state into forked pool workers")


def span_from_dict(data: dict) -> Span:
    """A finished span back from the dict ``Span.to_dict`` wrote."""
    return Span(trace_id=data["trace_id"], span_id=data["span_id"],
                parent_id=data.get("parent_id", ""), name=data["name"],
                start=float(data["start"]), end=float(data["end"]),
                status=data.get("status", "ok"),
                attrs=dict(data.get("attrs", {})))


def served(client: Any, method: str, path: str,
           payload: dict | None = None) -> dict:
    """One request through a ``ServeClient``: the decoded reply, which
    must be a 200."""
    status, body = client.request(method, path, payload)
    assert status == 200, (status, body)
    return body


def metrics_text(client: Any) -> str:
    """``GET /metrics`` through a ``ServeClient``: the Prometheus text
    (a body that is not JSON comes back as ``{"raw": text}``)."""
    return served(client, "GET", "/metrics")["raw"]


def load(path: str) -> Any:
    """The module at ``path`` from the repository root, imported once
    under its file's stem."""
    name = Path(path).stem
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, Path(__file__).parents[1] / path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]
