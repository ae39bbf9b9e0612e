"""Fast paths vs the op-by-op specification machine: bit-identical.

The simulator's hot-path optimizations (Compute-run coalescing and
run-ahead in the core's step, the inlined memory walk) are pure
speedups: they must not change a single simulated cycle or counter.
``spec_memsys.spec_machine`` builds the same step with both shortcuts
off over the specification's memory walk (``tests/spec_memsys.py``);
these tests run the same workloads on it and on a default machine and
require the results to match exactly — not approximately, bit for bit.
One known exception is pinned below: Compute coalescing is exact only
up to same-cycle cross-core tie order, which shows on Transpose and
nowhere else in the roster.  Run-ahead has no such exception, and its
guards are tested here too: a queue with a sampler attached never runs
ahead, observers see the same timestamps, and a deadlock is still
diagnosed.
"""

from __future__ import annotations

import pytest

from repro.analysis.inspection import machine_report
from repro.errors import DeadlockError
from repro.fdt.policies import FdtMode, FdtPolicy, StaticPolicy
from repro.fdt.runner import AppRunResult, run_application
from repro.isa.ops import Compute, Load, Lock, Store, Unlock
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.memsys import MemorySystem
from repro.sim.observer import SimObserver
from repro.trace import TraceRecorder, run_traced
from repro.workloads import get
from tests import spec_memsys
from tests.programs import holder, waiters
from tests.spec_memsys import spec_machine


def _app_run(build, workload: str, policy_name: str, config: MachineConfig,
             threads: int = 4) -> tuple[AppRunResult, dict]:
    """Run one workload/policy pair on ``build(config)``; return the full
    result and every per-component statistic of the machine it ran on."""
    machine = build(config)
    policy = (StaticPolicy(threads) if policy_name == "static" else FdtPolicy(FdtMode.COMBINED))
    run = run_application(get(workload).build(0.05), policy,
                          machine=machine)
    return run, machine_report(machine)


def _fast_and_slow(run):
    """``run(build)`` on a default machine and on the op-by-op
    specification machine; ``build(config, observers=())`` makes it."""
    return run(Machine), run(spec_machine)


@pytest.mark.parametrize("policy_name", ["static", "fdt"])
@pytest.mark.parametrize("workload", ["EP", "PageMine", "ED", "BT"])
def test_workloads_identical_fast_vs_slow(workload, policy_name):
    fast, slow = _fast_and_slow(lambda build: _app_run(
        build, workload, policy_name, MachineConfig.small()))
    assert fast == slow


def test_smt_workload_identical_fast_vs_slow():
    """Twelve threads on eight two-context cores: no coalescing either
    way, but run-ahead on the default path, with the sibling context's
    events in the same heap."""
    fast, slow = _fast_and_slow(lambda build: _app_run(
        build, "PageMine", "static", MachineConfig.small().with_smt(2),
        threads=12))
    assert fast == slow
    assert fast[0].threads_used == (12,)


def _transpose_cycles(machine: Machine) -> int:
    with machine:
        app = get("Transpose").build(0.05)
        return run_application(app, StaticPolicy(32), machine=machine).cycles


def test_engine_and_memsys_twins_identical_on_transpose():
    """With the core's two shortcuts held on, the specification's memory
    walk reproduces the fast paths on the one workload where the op-by-op
    machine diverges (next test)."""
    config = MachineConfig.asplos08_baseline()
    fast = _transpose_cycles(Machine(config))
    spec = _transpose_cycles(spec_machine(config, shortcuts=True))
    assert spec == fast == 131790


@pytest.mark.xfail(strict=True, reason=(
    "Compute coalescing is exact only up to same-cycle cross-core tie "
    "order: stepping op by op gives 131792 cycles, coalesced 131790"))
def test_full_slow_paths_flag_identical_on_transpose():
    config = MachineConfig.asplos08_baseline()
    fast = _transpose_cycles(Machine(config))
    assert _transpose_cycles(spec_machine(config)) == fast


def _mixed_factory(tid: int, team: int):
    """Synthetic thread touching every op the fast paths specialize.

    Alternating Compute/Load streams exercise the coalescer's pull-ahead
    and the pending op it leaves for the step; strided loads and stores
    walk L1 hits, L2 hits, clean and dirty misses, cross-core sharing
    and invalidations; the lock section adds spin/wake events that land
    ahead of pending ones, so run-ahead stops and starts.
    """
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


def _machine_fingerprint(build) -> dict[str, object]:
    """Run the synthetic region; return deep per-component counters
    (per core as the report lists them: every core, built or not — the
    op-by-op machine builds them all up front)."""
    machine = build(MachineConfig.small())
    region = machine.run_parallel([_mixed_factory] * 4)
    memsys = machine.memsys
    report = machine_report(machine)
    return {
        "now": machine.now,
        "region": (region.start_cycle, region.end_cycle),
        "cores": report["cores"],
        "counter_file": list(machine.counters._retired),
        "l1": report["l1"]["per_core"],
        "l2": report["l2"]["per_core"],
        "l3": [(b.cache.stats.hits, b.cache.stats.misses,
                b.cache.stats.evictions) for b in memsys.l3.banks],
        "directory": (memsys.directory.stats.gets,
                      memsys.directory.stats.getm,
                      memsys.directory.stats.upgrades,
                      memsys.directory.stats.invalidations_sent,
                      memsys.directory.stats.cache_to_cache,
                      memsys.directory.stats.writebacks_to_l3),
        "bus": (memsys.bus.stats.transfers, memsys.bus.stats.busy_cycles,
                memsys.bus.stats.total_wait_cycles),
        "dram": (memsys.dram.stats.accesses, memsys.dram.stats.row_hits),
        "ring": (memsys.ring.stats.messages, memsys.ring.stats.total_hops),
        "memsys": (memsys.stats.loads, memsys.stats.stores,
                   memsys.stats.l2_writebacks,
                   memsys.stats.l3_writebacks_to_dram,
                   memsys.stats.recalls),
        "locks": (machine.locks.stats.acquisitions,
                  machine.locks.stats.contended_acquisitions),
    }


def test_per_component_counters_identical_fast_vs_slow():
    fast, slow = _fast_and_slow(_machine_fingerprint)
    assert fast == slow


def _lone_factory(tid: int, team: int):
    """One thread, never two Computes in a row: coalescing has nothing
    to merge, so both paths make the same observer calls."""
    for i in range(60):
        yield Compute(9 + i % 4)
        yield Load(i * 4096)
        yield Store(i * 4096 + 64)


def test_lone_thread_runs_ahead_with_the_same_observer_timestamps():
    """A single-threaded region never finds an earlier pending event, so
    all of it runs ahead — one event pushed, at thread start — and an
    attached observer without a sampler is told the same cycles as on
    the op-by-op machine."""
    def observed(build):
        observer = SimObserver()
        machine = build(MachineConfig.small(), [observer])
        calls: list[tuple] = []
        for hook in ("on_compute", "on_access", "on_thread_exit"):
            setattr(observer, hook,
                    lambda *args, hook=hook: calls.append((hook, *args)))
        region = machine.run_serial(_lone_factory)
        return calls, region, machine.events.seq

    fast, slow = _fast_and_slow(observed)
    assert fast[:2] == slow[:2]
    assert {hook for hook, *_ in fast[0]} == {
        "on_compute", "on_access", "on_thread_exit"}
    # Op by op: the thread start, then one event per op (three a round).
    assert fast[2] == 1 and slow[2] == 1 + 3 * 60


def test_sampled_trace_does_not_run_ahead():
    """With counter sampling on, the queue has a sampler and the lone
    thread goes through it op by op: were it to run ahead, every sample
    would be taken at the end and read the final counters."""
    def sampled(build):
        recorder = TraceRecorder(sample_interval=50)
        machine = build(MachineConfig.small(), [recorder])
        machine.run_serial(_lone_factory)
        return recorder.data.samples, machine.events.seq

    fast, slow = _fast_and_slow(sampled)
    assert fast == slow
    assert len({s.retired_instructions for s in fast[0]}) > 10


def test_sampled_trace_series_pinned():
    """The counter series of a real traced run (251 samples), summed
    per field; recorded before the step learned to run ahead."""
    traced = run_traced(get("PageMine").build(0.1),
                        FdtPolicy(FdtMode.COMBINED),
                        MachineConfig.asplos08_baseline())
    samples = traced.trace.samples
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

    machine = Machine(MachineConfig.small())
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
    machine = spec_machine(MachineConfig.small())
    machine.run_serial(_lone_factory)
    core, stats = machine.cores[0], machine.memsys.stats
    assert (core._coalesce, core._run_ahead) == (False, False)
    assert machine.events.seq == 1 + 3 * 60
    assert len(calls) == stats.loads + stats.stores == 2 * 60
