"""The fixed benchmark suite: four representative simulator workloads.

Each scenario stresses one hot path of the simulator:

* ``compute-bound`` — the event-loop core: long homogeneous Compute
  runs on a small machine, almost no memory traffic.
* ``miss-bound`` — the memory walk: every load misses all the way to
  DRAM through the ring, L3 directory, bus, and bank model.
* ``cs-heavy`` — the runtime managers: short critical sections under
  heavy lock contention, plus the L1-hit path inside the sections.
* ``fdt-train-run`` — end to end: a full PageMine run under the
  combined FDT policy, training included.

Scenarios are deterministic: the same scenario at the same size always
simulates the same number of cycles, which the harness asserts — a
trial that simulates a different cycle count is a correctness bug, not
noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ReproError
from repro.isa.ops import Compute, Load, Lock, Store, Unlock
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine


@dataclass(frozen=True, slots=True)
class ScenarioStats:
    """What one scenario execution simulated (host time is measured outside)."""

    sim_cycles: int
    sim_ops: int


#: The timed body of one trial: executes one full simulation and
#: reports its size.
ScenarioBody = Callable[[], ScenarioStats]

#: ``prepare(quick)`` does all per-trial setup (machine construction,
#: input generation) *outside* the timed region and returns the timed
#: body, which runs once and closes the machine ``prepare`` built.
#: ``quick=True`` shrinks the input for CI.  The ``fdt-train-run``
#: scenario deliberately keeps machine construction inside the body:
#: end-to-end means end-to-end.
ScenarioSetup = Callable[[bool], ScenarioBody]


@dataclass(frozen=True, slots=True)
class Scenario:
    """One named entry of the benchmark suite."""

    name: str
    description: str
    prepare: ScenarioSetup

    def run(self, quick: bool) -> ScenarioStats:
        """Convenience: one untimed setup + body execution."""
        return self.prepare(quick)()


def _compute_bound(quick: bool) -> ScenarioBody:
    ops_per_thread = 4_000 if quick else 20_000
    machine = Machine(MachineConfig.small())

    def factory(tid: int, team: int):
        for _ in range(ops_per_thread):
            yield Compute(64)

    def body() -> ScenarioStats:
        with machine:
            machine.run_parallel([factory] * 4, spawn_overhead=False)
        return ScenarioStats(sim_cycles=machine.now,
                             sim_ops=4 * ops_per_thread * 64)
    return body


def _miss_bound(quick: bool) -> ScenarioBody:
    loads_per_thread = 1_000 if quick else 4_000
    machine = Machine(MachineConfig.asplos08_baseline())

    def factory(tid: int, team: int):
        # Disjoint 1-MB streams: every load is a cold L3 miss.
        base = (1 << 22) + tid * (1 << 22)
        for k in range(loads_per_thread):
            yield Load(base + k * 64)

    def body() -> ScenarioStats:
        with machine:
            machine.run_parallel([factory] * 8, spawn_overhead=False)
        return ScenarioStats(sim_cycles=machine.now,
                             sim_ops=8 * loads_per_thread)
    return body


def _cs_heavy(quick: bool) -> ScenarioBody:
    sections_per_thread = 300 if quick else 1_200
    machine = Machine(MachineConfig.small())

    def factory(tid: int, team: int):
        shared = 1 << 22
        for k in range(sections_per_thread):
            yield Compute(60)
            yield Lock(0)
            yield Load(shared)
            yield Compute(24)
            yield Store(shared)
            yield Unlock(0)

    def body() -> ScenarioStats:
        with machine:
            machine.run_parallel([factory] * 8, spawn_overhead=False)
        # 6 ops per section; Computes weighted by instruction count.
        ops = 8 * sections_per_thread * (60 + 24 + 4)
        return ScenarioStats(sim_cycles=machine.now, sim_ops=ops)
    return body


def _fdt_train_run(quick: bool) -> ScenarioBody:
    from repro.fdt.policies import FdtMode, FdtPolicy
    from repro.fdt.runner import run_application
    from repro.workloads import get

    scale = 0.05 if quick else 0.2
    spec = get("PageMine")

    def body() -> ScenarioStats:
        # App and machine construction stay inside the timed region:
        # this scenario measures the end-to-end train+run pipeline,
        # and a fresh app per trial keeps trials independent.
        result = run_application(spec.build(scale),
                                 FdtPolicy(FdtMode.COMBINED),
                                 MachineConfig.asplos08_baseline())
        return ScenarioStats(sim_cycles=result.cycles,
                             sim_ops=result.result.retired_instructions)
    return body


SCENARIOS: tuple[Scenario, ...] = (
    Scenario("compute-bound",
             "homogeneous Compute runs; stresses the event loop",
             _compute_bound),
    Scenario("miss-bound",
             "all-miss load streams; stresses the full memory walk",
             _miss_bound),
    Scenario("cs-heavy",
             "contended short critical sections; stresses the runtime",
             _cs_heavy),
    Scenario("fdt-train-run",
             "full PageMine run under combined FDT, training included",
             _fdt_train_run),
)


def select(names: list[str] | None) -> tuple[Scenario, ...]:
    """The suite subset for ``names`` (all scenarios when None/empty)."""
    if not names:
        return SCENARIOS
    by_name = {s.name: s for s in SCENARIOS}
    missing = [n for n in names if n not in by_name]
    if missing:
        known = ", ".join(s.name for s in SCENARIOS)
        raise ReproError(
            f"unknown bench scenario(s) {', '.join(missing)}; known: {known}")
    return tuple(by_name[n] for n in names)
