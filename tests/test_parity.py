"""One bit-identity matrix: no layer around the simulator moves a cycle.

FDT picks a thread count from the counters it reads while a program
runs, so the reproduction holds only while the fast step, the observers,
host telemetry, fault hooks and the jobs backends leave every simulated
result exact.  :data:`PROGRAMS` is what runs (a batch of job specs, each
on a machine of its own, or one raw region); :data:`COLUMNS` is how,
each naming the programs it applies to; :func:`check_cell` is the one
comparator.  A cell holds when the full results (cycles, per-kernel
counters, FDT decisions) equal the program's reference — a direct run on
a plain machine, made once per session — every ``machine_report`` does
too wherever the column exposes its machine, and the column's ``saw``
predicate proves it really ran.  A new observer or layer is one row of
:data:`COLUMNS`.  Below the matrix, named tests guard the step's
shortcuts: run-ahead, the sampler, deadlock diagnosis, the spec machine.
"""

from __future__ import annotations

import contextlib
import functools
import io
from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro.analysis.inspection import machine_report
from repro.errors import DeadlockError
from repro.faults import FaultPlan, FaultRule, injected
from repro.fdt.runner import run_application
from repro.isa.ops import Compute, Load, Lock, Store, Unlock
from repro.jobs import JobRunner, JobSpec, PolicySpec, ResultCache, WorkloadRef
from repro.obs import configure_logging, reset_default_registry, span
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.memsys import MemorySystem
from repro.sim.observer import SimObserver
from repro.trace import TraceRecorder
from repro.trace import recorder as recorder_mod
from tests import spec_memsys
from tests.programs import (
    DecisionTap,
    FanOut,
    holder,
    synthetic_spec,
    traced,
    waiters,
)
from tests.spec_memsys import spec_machine
from tests.test_trace import replay

SMALL = MachineConfig.small()
BASE = MachineConfig.asplos08_baseline()


# -- programs ------------------------------------------------------------------

def _mixed_factory(tid: int, team: int):
    """Every op the fast paths specialize: Compute/Load streams for the
    coalescer's pull-ahead, strided loads and stores through hits,
    clean and dirty misses, sharing and invalidations, and a lock whose
    spin/wake events stop and restart run-ahead."""
    base = tid * 1 << 18
    shared = 1 << 24
    for i in range(40):
        yield Compute(37)
        yield Compute(0)
        yield Compute(5)
        yield Load(base + i * 4096)
        yield Store(base + i * 4096 + 64)
        yield Load(shared + (i % 7) * 64)
        if i % 5 == 0:
            yield Lock(0)
            yield Load(shared)
            yield Compute(11)
            yield Store(shared)
            yield Unlock(0)
        yield Store(shared + ((i + tid) % 11) * 64)


def _mixed_region(machine: Machine) -> dict[str, Any]:
    """Four mixed threads; what ``machine_report`` rounds or leaves out."""
    region = machine.run_parallel([_mixed_factory] * 4)
    return {"region": (region.start_cycle, region.end_cycle),
            "retired": [machine.counters.retired(core)
                        for core in range(machine.config.num_cores)],
            "ring_hops": machine.ring.stats.total_hops,
            "bus_wait": machine.memsys.bus.stats.total_wait_cycles}


@dataclass(frozen=True)
class Program:
    """A batch of job specs, or ``region`` driving one small machine
    (no spec expresses it, so no jobs column takes it); ``expect`` pins
    the reference's results."""

    specs: tuple[JobSpec, ...] = ()
    region: Callable[[Machine], Any] | None = None
    expect: Callable[[tuple], bool] | None = None


def _batch(config, workload, *policies, expect=None) -> Program:
    return Program(tuple(JobSpec(workload=workload, policy=policy,
                                 config=config) for policy in policies),
                   expect=expect)


STATIC_32, FDT = PolicySpec.static(32), PolicySpec.fdt()
PROGRAMS: dict[str, Program] = {
    **{f"{name}-small-{p.label}": _batch(SMALL, WorkloadRef(name, 0.05), p)
       for name in ("EP", "BT") for p in (PolicySpec.static(4), FDT)},
    **{f"{name}-{p.label}": _batch(BASE, WorkloadRef(name, 0.1), p)
       for name in ("PageMine", "ED") for p in (STATIC_32, FDT)},
    # The one cell that moved while the tracer switched coalescing off
    # (test_transpose_reference_cycles_pinned).
    "Transpose-static-32": _batch(BASE, WorkloadRef("Transpose", 0.05),
                                  STATIC_32),
    "Transpose-fdt": _batch(BASE, WorkloadRef("Transpose", 0.05), FDT),
    # Twelve threads on eight two-context cores: no coalescing either
    # way, and the sibling context's events in the same heap.
    "PageMine-smt-12": _batch(SMALL.with_smt(2), WorkloadRef("PageMine", 0.05),
                              PolicySpec.static(12),
                              expect=lambda r: r[0].threads_used == (12,)),
    # Determinism: two fresh machines, the same run.
    "PageMine-static-4": _batch(BASE, WorkloadRef("PageMine", 0.1),
                                PolicySpec.static(4)),
    "EP-0.25-fdt": _batch(BASE, WorkloadRef("EP", 0.25), FDT),
    **{f"{name}-grid": _batch(BASE, WorkloadRef(name, 0.1),
                              *map(PolicySpec.static, (1, 2, 4)), FDT)
       for name in ("EP", "PageMine")},
    "synthetic-static-2": Program((synthetic_spec(16),)),
    "synthetic-fdt": Program((synthetic_spec(16, policy="fdt"),)),
    "mixed-region": Program(region=_mixed_region),
}


def _run_spec(spec: JobSpec, machine: Machine):
    return run_application(spec.workload.build(), spec.policy.build(),
                           machine=machine)


def _on(build, program: Program, plugins=()) -> tuple:
    """Each run on its own ``build(config, observer)``, closed after it,
    with ``plugins`` in its one observer slot (a fan-out when there are
    several); the evidence is ``(observers, spec, result)`` per run."""
    runs = ([(SMALL, program.region)] if program.region else
            [(s.config, functools.partial(_run_spec, s)) for s in program.specs])
    results, reports, attached = [], [], []
    for config, drive in runs:
        attached.append([make() for make in plugins])
        slot = (FanOut(*attached[-1]) if len(plugins) > 1
                else attached[-1][0] if plugins else None)
        with build(config, slot) as machine:
            results.append(drive(machine))
        reports.append(machine_report(machine))
    return (tuple(results), tuple(reports),
            list(zip(attached, program.specs, results)))


@functools.cache
def reference(program_id: str) -> tuple[tuple, tuple]:
    """The direct runs on plain machines, once per session.  Never the
    jobs layer: its columns would compare the runner with itself."""
    program = PROGRAMS[program_id]
    results, reports, _ = _on(Machine, program)
    assert program.expect is None or program.expect(results), program_id
    return results, reports


# -- columns -------------------------------------------------------------------

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


#: What each plug-in must show after a run to prove it observed it.
SAW_THE_RUN = {
    TraceRecorder: lambda o, spec, _: (
        o.data.spans and o.data.num_cores == spec.config.num_cores),
    EventCounter: lambda o, spec, _: o.machine and o.regions and o.accesses,
    # One record per FDT kernel, each replaying to its own choice.
    DecisionTap: lambda o, spec, result: all(
        replay(d) == d.chosen_threads for d in o.decisions) and [
        (d.kernel_name, d.chosen_threads) for d in o.decisions] == [
        (k.kernel_name, k.threads) for k in result.kernel_infos
        if spec.policy.kind == "fdt"],
}


@dataclass(frozen=True)
class Column:
    """``run(program, request)`` gives ``(results, reports, evidence)``,
    ``reports`` ``None`` where the machine stays hidden; ``saw(evidence,
    program)``, where given, proves the column really ran."""

    programs: tuple[str, ...]
    run: Callable[[Program, Any], tuple]
    saw: Callable[[Any, Program], bool] | None = None


def observed(*plugins, **patch: int) -> Callable:
    """Each run on a ``Machine`` with fresh ``plugins`` attached, and
    the recorder's module constants ``patch`` set for the cell."""
    def run(program, request):
        for name, value in patch.items():
            request.getfixturevalue("monkeypatch").setattr(
                recorder_mod, name, value)
        return _on(Machine, program, plugins)
    return run


def _plugins_saw(evidence, program) -> bool:
    return all(SAW_THE_RUN[type(o)](o, spec, result)
               for observers, spec, result in evidence for o in observers)


def _loud(program, request):
    """Every host-side observer all the way up: spans to a JSONL sink
    inside an enclosing span, DEBUG JSON logging, a fresh registry."""
    sink = request.getfixturevalue("span_sink")
    configure_logging(level="DEBUG", json_lines=True, stream=io.StringIO())
    reset_default_registry()
    try:
        with span("parity.loud"):
            results, reports, _ = _on(Machine, program)
    finally:
        configure_logging(level="WARNING")
    return results, reports, sink(name="parity.loud")


def jobs(cache=False, warm=False, faults=False, trace=False, pool=False):
    """The batch through one ``JobRunner``: on two worker processes, over
    a fresh cache directory (``warm``: filled first by another runner),
    tracing every job, or under a plan that fails every cache write
    (host-side, as every fault site is).  The evidence is the runner's
    manifest and the armed injector."""
    def run(program, request):
        path = request.getfixturevalue("tmp_path_factory").mktemp("jobs")

        def runner() -> JobRunner:
            return JobRunner(cache=ResultCache(path) if cache else None,
                             jobs=2 if pool else 1,
                             trace_dir=str(path / "traces") if trace else None)
        if warm:
            runner().run(program.specs)
        plan = FaultPlan(rules=(FaultRule("cache.write", "io-error"),))
        with injected(plan) if faults else contextlib.nullcontext() as armed:
            job_runner = runner()
            results = tuple(job_runner.run(program.specs))
        return results, None, (job_runner.manifest, armed)
    return run


def manifest(holds: Callable) -> Callable:
    """``saw`` as ``holds(manifest, batch size)``."""
    return lambda evidence, program: holds(evidence[0], len(program.specs))


OBSERVED = tuple(f"{name}-{p}" for name in ("PageMine", "ED", "Transpose")
                 for p in ("static-32", "fdt"))
SYNTHETIC = ("synthetic-static-2", "synthetic-fdt")
GRIDS = ("EP-grid", "PageMine-grid")
SPEC = ("EP-small-static-4", "EP-small-fdt", "BT-small-static-4",
        "BT-small-fdt", "PageMine-static-32", "PageMine-fdt", "ED-static-32",
        "ED-fdt", "Transpose-static-32", "PageMine-smt-12", "mixed-region")
#: id -> (recorder constants patched, the Trace field that must fill).
#: Each pushes one feature past its default.
TRACE_FEATURES = {"timeline": ({"MIN_MEM_STALL_CYCLES": 0}, "spans"),
                  "counters": ({"SAMPLE_INTERVAL": 10}, "samples"),
                  "decisions": ({}, "decisions"),
                  "interval-97": ({"SAMPLE_INTERVAL": 97}, "samples"),
                  "max-events-10": ({"SAMPLE_INTERVAL": 97, "MAX_EVENTS": 10},
                                    "dropped_spans")}

COLUMNS: dict[str, Column] = {
    "machine": Column(OBSERVED + SYNTHETIC + ("PageMine-static-4",
                                              "EP-0.25-fdt"), observed()),
    "spec": Column(SPEC, lambda p, r: _on(spec_machine, p)),
    "spec-shortcuts": Column(("Transpose-static-32",), lambda p, r: _on(
        functools.partial(spec_machine, shortcuts=True), p)),
    **{name: Column(OBSERVED + SYNTHETIC, observed(*plugins), _plugins_saw)
       for name, plugins in {
           "tracer": (TraceRecorder,),
           "both": (TraceRecorder, EventCounter),
           "both+third": (TraceRecorder, EventCounter, DecisionTap),
           "decision-tap": (DecisionTap,)}.items()},
    **{f"trace-{feature}": Column(
        ("PageMine-fdt", "ED-fdt"),
        observed(TraceRecorder, **patch),
        lambda evidence, _, field=field: all(
            getattr(o.data, field) for os, *_ in evidence for o in os))
       for feature, (patch, field) in TRACE_FEATURES.items()},
    "obs": Column(SYNTHETIC, _loud, lambda spans, _: bool(spans)),
    "jobs-serial": Column(GRIDS, jobs(), manifest(
        lambda m, n: {e.backend for e in m.entries} == {"serial"})),
    "jobs-pool": Column(GRIDS, jobs(pool=True), manifest(
        lambda m, n: {e.backend for e in m.entries} == {"pool"})),
    "jobs-cold": Column(GRIDS, jobs(cache=True), manifest(
        lambda m, n: m.counts["computed"] == n)),
    "jobs-warm": Column(GRIDS, jobs(cache=True, warm=True), manifest(
        lambda m, n: (m.counts["hits"], m.counts["total"],
                      m.counts["computed"]) == (n, n, 0))),
    "jobs-trace-dir": Column(("PageMine-grid",), jobs(trace=True), manifest(
        lambda m, n: len(m.entries) == n and all(
            e.trace_path.endswith(e.key) for e in m.entries))),
    "faults": Column(GRIDS, jobs(cache=True, faults=True),
                     lambda evidence, program: evidence[1].firing_count()
                     == len(program.specs)),
}

#: Compute coalescing is exact only up to same-cycle cross-core tie
#: order, which shows on Transpose and nowhere else in the roster.
XFAIL = {("Transpose-static-32", "spec"): (
    "stepping op by op settles a same-cycle cross-core tie the other "
    "way: two cycles more than the coalesced step")}


def check_cell(program_id: str, column: Column, request) -> None:
    """The one comparator (module docstring); raises AssertionError."""
    results, reports = reference(program_id)
    program = PROGRAMS[program_id]
    got, got_reports, evidence = column.run(program, request)
    assert got == results  # full dataclass equality
    assert got_reports is None or got_reports == reports
    assert column.saw is None or column.saw(evidence, program), "unseen"


@pytest.mark.parametrize(("program", "column"), [
    pytest.param(program, name, id=f"{program}-{name}", marks=[
        pytest.mark.xfail(strict=True, reason=XFAIL[program, name])
    ] if (program, name) in XFAIL else [])
    for name, column in COLUMNS.items() for program in column.programs])
def test_cell(program, column, request):
    check_cell(program, COLUMNS[column], request)


def test_transpose_reference_cycles_pinned():
    """The reference of the cell that failed while the tracer switched
    coalescing off (131792 traced, 131790 untraced); every column of
    its row is held equal to this run."""
    results, _ = reference("Transpose-static-32")
    assert results[0].cycles == 131790


class CounterBump(SimObserver):
    """Impure on purpose: every access it sees bumps a machine counter."""

    def on_attach(self, machine) -> None:
        self.stats = machine.memsys.stats

    def on_access(self, agent, addr, is_store, now) -> None:
        self.stats.stores += 1


def test_an_impure_observer_fails_exactly_its_column(request):
    """On the synthetic programs, every cell of an impure observer's
    column fails the comparator and every cell of the others passes."""
    failed = set()
    for name, column in dict(COLUMNS, impure=Column(
            SYNTHETIC, observed(CounterBump))).items():
        for program in set(column.programs) & set(SYNTHETIC):
            try:
                check_cell(program, column, request)
            except AssertionError:
                failed.add((program, name))
    assert failed == {(program, "impure") for program in SYNTHETIC}


# -- the step's shortcuts ----------------------------------------------------------

def _lone_factory(tid: int, team: int):
    """One thread, never two Computes in a row: coalescing has nothing
    to merge, so both paths make the same observer calls."""
    for i in range(60):
        yield Compute(9 + i % 4)
        yield Load(i * 4096)
        yield Store(i * 4096 + 64)


def _fast_and_slow(run):
    """``run(build)`` on a default machine and on the op-by-op
    specification machine; ``build(config, observer=None)`` makes it."""
    return run(Machine), run(spec_machine)


def test_lone_thread_runs_ahead_with_the_same_observer_timestamps():
    """A single-threaded region never finds an earlier pending event, so
    all of it runs ahead — one event pushed, at thread start — and an
    attached observer without a sampler is told the same cycles as on
    the op-by-op machine."""
    def observed_calls(build):
        observer = SimObserver()
        machine = build(SMALL, observer)
        calls: list[tuple] = []
        for hook in ("on_compute", "on_access", "on_thread_exit"):
            setattr(observer, hook,
                    lambda *args, hook=hook: calls.append((hook, *args)))
        region = machine.run_serial(_lone_factory)
        return calls, region, machine.events.seq

    fast, slow = _fast_and_slow(observed_calls)
    assert fast[:2] == slow[:2]
    assert {hook for hook, *_ in fast[0]} == {
        "on_compute", "on_access", "on_thread_exit"}
    # Op by op: the thread start, then one event per op (three a round).
    assert fast[2] == 1 and slow[2] == 1 + 3 * 60


def test_sampled_trace_does_not_run_ahead(monkeypatch):
    """With counter sampling on, the queue has a sampler and the lone
    thread goes through it op by op: were it to run ahead, every sample
    would be taken at the end and read the final counters."""
    monkeypatch.setattr(recorder_mod, "SAMPLE_INTERVAL", 50)

    def sampled(build):
        recorder = TraceRecorder()
        machine = build(SMALL, recorder)
        machine.run_serial(_lone_factory)
        return recorder.data.samples, machine.events.seq

    fast, slow = _fast_and_slow(sampled)
    assert fast == slow
    assert len({s.retired_instructions for s in fast[0]}) > 10


def test_sampled_trace_series_pinned():
    """The counter series of a real traced run (251 samples), summed
    per field; recorded before the step learned to run ahead."""
    _, trace = traced(WorkloadRef("PageMine", 0.1).build(), FDT.build(), BASE)
    samples = trace.samples
    assert (len(samples),
            sum(s.retired_instructions for s in samples),
            sum(s.bus_busy_cycles for s in samples),
            sum(s.active_cores for s in samples),
            sum(s.lock_acquisitions for s in samples)) == (
        251, 30061447, 4400384, 611, 3311)


def test_deadlock_diagnosed_while_sibling_runs_ahead():
    """Thread 1 waits for a lock thread 0 never releases; thread 0 then
    has the queue to itself, runs ahead to its end, and the drained
    queue still names the blocked core."""
    def factory(tid: int, team: int):
        if tid == 0:
            yield Lock(0)
            for i in range(50):
                yield Load(i * 4096)
        else:
            yield Compute(400)
            yield Lock(0)

    machine = Machine(SMALL)
    with pytest.raises(DeadlockError, match=r"blocked on cores \[1\]"):
        machine.run_parallel([factory] * 2, spawn_overhead=False)
    assert holder(machine.locks, 0) == 0 and waiters(machine.locks, 0) == 1


def test_op_by_op_machine_runs_every_access_on_the_spec(monkeypatch):
    """Guard against the op-by-op machine silently rotting: it steps the
    lone thread one event an op, never builds the port, and sends every
    load and store through the specification's ``access()``."""
    def no_port(memsys, core):
        raise AssertionError("the op-by-op machine built the port")

    spec_access = spec_memsys.access
    calls = []

    def counted_access(*args):
        calls.append(args)
        return spec_access(*args)

    monkeypatch.setattr(MemorySystem, "make_port", no_port)
    monkeypatch.setattr(spec_memsys, "access", counted_access)
    machine = spec_machine(SMALL)
    machine.run_serial(_lone_factory)
    core, stats = machine.cores[0], machine.memsys.stats
    assert (core._coalesce, core._run_ahead) == (False, False)
    assert machine.events.seq == 1 + 3 * 60
    assert len(calls) == machine.memsys.loads + stats.stores == 2 * 60
