"""A finished simulation frees by refcount.

``Machine.close()`` cuts the machine's reference cycles and every owner
in ``src/`` closes what it built, so a finished run leaves the cycle
collector nothing from ``repro.sim``.  Each case runs with the collector
off and then asks it what it would have had to find.

A machine is also built as it is used — a cache set by its first fill, a
core (contexts, L1 and L2, memory port, steps) by its first
thread — and the last section counts what a fresh machine holds, which
cores, ports and steps exist after a region, and checks that *when*
they were built cannot be observed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro.analysis.inspection import machine_report
from repro.check.runner import check_workload
from repro.cli import main
from repro.errors import DeadlockError, ProgramError, SimulationError
from repro.fdt.policies import StaticPolicy
from repro.fdt.priors import measure_estimates
from repro.fdt.runner import run_application
from repro.isa.ops import Compute
from repro.jobs.spec import JobSpec, PolicySpec, WorkloadRef
from repro.sim.cache import UNFILLED, SetAssocCache
from repro.sim.config import MachineConfig
from repro.sim.core import Core, _Context
from repro.sim.machine import Machine
from repro.sim.memsys import MemorySystem
from repro.sim.observer import SimObserver
from repro.trace import recorder, run_traced
from repro.trace.recorder import MIN_MEM_STALL_CYCLES, SAMPLE_INTERVAL
from repro.workloads import get
from repro.workloads.synthetic import FIXTURES

SIM_TYPES = (Core, _Context, MemorySystem, SetAssocCache)
SCALE = 0.05


@contextmanager
def collector_off():
    """Run the body with the cycle collector disabled, from a clean slate
    (earlier tests' garbage is not this run's)."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def sim_garbage(run) -> list[str]:
    """Type names of the ``repro.sim`` objects only the cycle collector
    could free after ``run()`` (whose result is dropped)."""
    with collector_off():
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            return sorted({type(o).__name__ for o in gc.garbage
                           if isinstance(o, SIM_TYPES)})
        finally:
            gc.set_debug(0)
            gc.garbage.clear()


def spec_for(workload: str, policy: str) -> JobSpec:
    return JobSpec(
        workload=WorkloadRef(name=workload, scale=SCALE),
        policy=PolicySpec(policy, 4 if policy == "static" else None),
        config=MachineConfig.asplos08_baseline())


def tiny_team(machine: Machine) -> None:
    def factory(tid: int, team: int):
        yield Compute(8)
    machine.run_parallel([factory] * 2)


# -- no owner leaves a machine to the collector ----------------------------------

@pytest.mark.parametrize("policy", ["static", "fdt"])
@pytest.mark.parametrize("workload", ["EP", "ED", "BT", "MTwister"])
def test_a_finished_job_leaves_no_sim_garbage(workload, policy):
    assert sim_garbage(spec_for(workload, policy).run) == []


@pytest.mark.parametrize("min_stall, interval", [
    (0, SAMPLE_INTERVAL),  # every memory stall is a timeline span
    (MIN_MEM_STALL_CYCLES, 10),  # the recorder samples the queue often
], ids=["timeline", "counter-sampling"])
def test_a_traced_run_leaves_no_sim_garbage(min_stall, interval,
                                            monkeypatch):
    # The recorder keeps a timeline and is the queue's sampler.
    monkeypatch.setattr(recorder, "MIN_MEM_STALL_CYCLES", min_stall)
    spec = spec_for("ED", "fdt")
    assert sim_garbage(lambda: run_traced(
        spec.workload.build(), spec.policy.build(), spec.config,
        interval)) == []


def test_a_checked_run_leaves_no_sim_garbage():
    assert sim_garbage(lambda: check_workload("EP", scale=SCALE)) == []


def test_measured_estimates_leave_no_sim_garbage():
    kernel = get("ED").build(SCALE).kernels[0]
    assert sim_garbage(lambda: measure_estimates(kernel)) == []


def test_a_deadlocked_run_leaves_no_sim_garbage():
    """``static-barrier-mismatch`` hangs for certain (``static-deadlock``
    is latent and completes), with every context still spinning."""
    def run() -> None:
        try:
            run_application(FIXTURES["static-barrier-mismatch"](1.0),
                            StaticPolicy(4))
        except DeadlockError:
            return
        pytest.fail("the barrier mismatch did not deadlock")
    assert sim_garbage(run) == []


def test_an_aborted_run_leaves_no_sim_garbage():
    """A program error strands the other threads' steps on the event
    queue, which those steps' closures hold in turn."""
    def factory(tid: int, team: int):
        yield Compute(100 * (tid + 1))
        if tid == 0:
            yield "not an op"
        yield Compute(1000)

    def run() -> None:
        with Machine(MachineConfig.small()) as machine:
            try:
                machine.run_parallel([factory] * 4)
            except ProgramError:
                assert len(machine.events.heap) > 0
                return
        pytest.fail("the unknown op was accepted")
    assert sim_garbage(run) == []


def test_memory_does_not_grow_over_consecutive_jobs():
    """With the collector off, six runs hold what one run holds."""
    spec = spec_for("PageMine", "static")
    with collector_off():
        tracemalloc.start()
        try:
            spec.run()
            after_first, _peak = tracemalloc.get_traced_memory()
            for _ in range(5):
                spec.run()
            after_sixth, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert after_sixth <= 1.25 * after_first


# -- the close() contract -------------------------------------------------------

def test_close_is_idempotent_and_the_counters_stay_readable():
    """The benchmark's tracer folds a machine's counters after the job
    that built (and closed) it has returned."""
    machine = Machine(MachineConfig.small())
    start = machine.snapshot()
    tiny_team(machine)
    cycles, report = machine.now, machine_report(machine)
    assert cycles > 0
    machine.close()
    machine.close()
    assert machine.now == cycles
    assert machine_report(machine) == report
    assert machine.result_since(start).cycles == cycles


def test_a_closed_machine_refuses_to_run():
    machine = Machine(MachineConfig.small())
    machine.close()
    with pytest.raises(SimulationError, match="closed"):
        tiny_team(machine)


def test_the_context_manager_closes_on_an_exception():
    with pytest.raises(RuntimeError, match="boom"):
        with Machine(MachineConfig.small()) as machine:
            raise RuntimeError("boom")
    with pytest.raises(SimulationError, match="closed"):
        tiny_team(machine)


def test_a_borrowed_machine_stays_open():
    """``machine=`` lends warm state; only its owner closes it."""
    app, policy = get("EP").build(SCALE), StaticPolicy(2)
    with Machine() as machine:
        first = run_application(app, policy, machine=machine)
        second = run_application(app, policy, machine=machine)
        assert first.cycles > 0 and second.cycles > 0
        assert machine.now >= first.cycles + second.cycles
        tiny_team(machine)  # still open


# -- a machine is built as it is used ---------------------------------------------

def all_caches(machine: Machine) -> list[SetAssocCache]:
    memsys = machine.memsys
    return [*memsys.l1s, *memsys.l2s, *(b.cache for b in memsys.l3.banks)]


def ports_and_steps(machine: Machine) -> dict[int, int]:
    """Core id -> number of steps built there, for every core that owns a
    memory port (a step is never built without its core's port)."""
    built = {}
    for core in machine.cores:
        steps = sum(ctx.step is not None for ctx in core.contexts)
        assert (core._mem_access is None) == (steps == 0)
        if steps:
            built[core.core_id] = steps
    return built


def brief(tid: int, team: int):
    yield Compute(8)


def force_build(machine: Machine) -> None:
    """Do for every core now what the machine and ``start_thread`` do on
    first use: build it, its caches, its port and its steps."""
    machine._place(machine.config.num_thread_slots)
    for core in machine.cores:
        core._mem_access = machine.memsys.make_port(core.core_id)
        for ctx in core.contexts:
            ctx.step = core._make_step(ctx)


class Teams(SimObserver):
    """Records the team size of every region."""

    def __init__(self) -> None:
        self.sizes: list[int] = []

    def on_region_begin(self, num_threads: int, now: int) -> None:
        self.sizes.append(num_threads)


def test_a_fresh_machine_has_built_nothing_it_was_not_asked_for():
    config = MachineConfig.asplos08_baseline()
    Machine(config).close()  # imports and one-time caches are not the count
    with collector_off():
        before = len(gc.get_objects())
        machine = Machine(config)
        added = len(gc.get_objects()) - before
    with machine:
        # Eager sets, ports and steps: 3 532; eager cores and caches: 491.
        assert added <= 150
        assert machine.cores == machine.memsys.l1s == machine.memsys.l2s == []
        for cache in all_caches(machine):
            assert all(s is UNFILLED for s in cache._sets)
        assert ports_and_steps(machine) == {}


def test_a_region_builds_the_port_and_step_of_the_cores_it_lands_on():
    with Machine(MachineConfig.asplos08_baseline()) as machine:
        machine.run_serial(brief)
        assert ports_and_steps(machine) == {0: 1}
        assert len(machine.cores) == len(machine.memsys.l2s) == 1
        port, step = machine.cores[0]._mem_access, machine.cores[0].contexts[0].step
        machine.run_parallel([brief] * 4)
        assert ports_and_steps(machine) == {0: 1, 1: 1, 2: 1, 3: 1}
        assert [c.core_id for c in machine.cores] == [0, 1, 2, 3]
        assert [c.name for c in machine.memsys.l1s] == [
            "l1.0", "l1.1", "l1.2", "l1.3"]
        # The second region on core 0 reused what the first one built.
        assert machine.cores[0]._mem_access is port
        assert machine.cores[0].contexts[0].step is step


def test_an_fdt_run_builds_exactly_the_cores_its_teams_used():
    """The synthetic kernel under FDT runs small teams on Table 1: only
    their cores exist afterwards, and the report still lists all 32."""
    teams = Teams()
    app = WorkloadRef.synthetic(cs_fraction=0.1, bus_lines=2, iterations=64,
                                compute_instr=5000).build()
    config = MachineConfig.asplos08_baseline()
    with Machine(config, observers=[teams]) as machine:
        run_application(app, PolicySpec.fdt().build(), machine=machine)
        used = max(teams.sizes)
        assert used < config.num_cores
        assert ports_and_steps(machine) == dict.fromkeys(range(used), 1)
        assert len(machine.memsys.l1s) == len(machine.memsys.l2s) == used
        report = machine_report(machine)
    assert [c["core"] for c in report["cores"]] == list(range(32))
    assert len(report["l1"]["per_core"]) == len(report["l2"]["per_core"]) == 32
    idle = report["l2"]["per_core"][used:]
    assert all(row == {"hits": 0, "misses": 0, "evictions": 0,
                       "invalidations": 0, "miss_rate": 0.0,
                       "resident_lines": 0} for row in idle)
    assert all(row["retired_instructions"] == row["spin_cycles"] == 0
               for row in report["cores"][used:])


def test_the_report_of_a_run_is_the_eager_machines(tmp_path, capsys):
    """``repro run EP --scale 0.05 --report``, byte for byte as the
    machine that built all 32 cores up front wrote it."""
    out = tmp_path / "report.json"
    assert main(["run", "EP", "--scale", "0.05", "--report", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "ac009578df38132285d9eb214ebcb2f9e0d7f311d6392fcb3fd6738ef8242192")


def test_smt_contexts_share_their_cores_one_port():
    config = MachineConfig.small(num_cores=4).with_smt(2)
    with Machine(config) as machine:
        machine.run_parallel([brief] * (config.num_cores + 1))
        assert ports_and_steps(machine) == {0: 2, 1: 1, 2: 1, 3: 1}
        port = machine.cores[0]._mem_access
        steps = [ctx.step for ctx in machine.cores[0].contexts]
        machine.run_parallel([brief] * (config.num_cores + 1))
        assert machine.cores[0]._mem_access is port
        assert [ctx.step for ctx in machine.cores[0].contexts] == steps


@pytest.mark.parametrize("threads", [0, 2], ids=["never-run", "partly-used"])
def test_close_clears_what_was_built_and_only_that(threads):
    machine = Machine(MachineConfig.small())
    if threads:
        tiny_team(machine)
    assert len(ports_and_steps(machine)) == threads
    machine.close()
    machine.close()
    assert ports_and_steps(machine) == {}
    assert machine.now == machine.snapshot().cycles


def eager_and_lazy(workload: str, policy: str,
                   config: MachineConfig) -> tuple[tuple, tuple]:
    """``(result, machine_report)`` of one application on a machine that
    built every core up front and on one built as it was used."""
    app = get(workload).build(SCALE)
    policy_spec = PolicySpec(
        policy, config.num_thread_slots if policy == "static" else None)

    def run(prepare) -> tuple:
        with Machine(config) as machine:
            prepare(machine)
            result = run_application(app, policy_spec.build(),
                                     machine=machine)
            return result, machine_report(machine)

    return run(force_build), run(lambda machine: None)


@pytest.mark.parametrize("policy", ["static", "fdt"])
@pytest.mark.parametrize("workload", ["PageMine", "ED", "Transpose"])
def test_build_time_is_unobservable(workload, policy):
    """A port binds the ``_sets`` *lists*: one built after other cores
    have filled sets walks the same memory as one built before, and a
    machine that built every core up front reports what a lazy one
    does."""
    eager, lazy = eager_and_lazy(workload, policy,
                                 MachineConfig.asplos08_baseline())
    assert eager == lazy
    assert json.dumps(eager[1]) == json.dumps(lazy[1])


TABLE1 = MachineConfig.asplos08_baseline()


@pytest.mark.parametrize("config", [
    TABLE1.with_smt(2),
    replace(TABLE1.with_smt(2), smt_placement="compact"),
    MachineConfig.baseline_with(cores=3),
], ids=["smt2-scatter", "smt2-compact", "cores3"])
@pytest.mark.parametrize("policy", ["static", "fdt"])
def test_build_time_is_unobservable_off_table1(policy, config):
    """The same on the machines whose placement differs from Table 1's:
    two contexts per core, scattered or compact, and three cores."""
    eager, lazy = eager_and_lazy("PageMine", policy, config)
    assert eager == lazy
    assert json.dumps(eager[1]) == json.dumps(lazy[1])
