"""Tests for the static workload analyzer (repro.check.static).

The three seeded-defect fixtures must each be proved broken with their
own distinct finding code; every Table 2 workload must analyze clean at
1, 4, and 16 threads; and the static SAT priors must agree with the
measured training estimates within the documented tolerance.
"""

from __future__ import annotations

import json
from typing import Iterator

import pytest

from repro.check import STATIC, analyze_application, analyze_workload
from repro.check import findings as findings_mod
from repro.check.static import AbstractExecutor
from repro.check.static import executor as executor_mod
from repro.check.static.barriers import barrier_findings
from repro.check.static.lints import lint_findings
from repro.check.static.locks import lock_fault_findings, lock_order_findings
from repro.check.static.profile import profile_team, team_priors
from repro.errors import WorkloadError
from repro.fdt.kernel import TeamParallelKernel
from repro.fdt.priors import CS_FRACTION_RTOL, derive_priors, measure_estimates
from repro.fdt.runner import Application
from repro.isa.ops import (
    BarrierWait,
    Compute,
    CounterKind,
    Load,
    Lock,
    Op,
    ReadCounter,
    Store,
    Unlock,
)
from repro.sim.config import MachineConfig
from repro.workloads import all_specs, get
from repro.workloads.synthetic import FIXTURES

BASE = MachineConfig.asplos08_baseline()


def _run_one(*ops: Op):
    """Summarize a literal op list as thread 0 of a team of one."""
    executor = AbstractExecutor(BASE)
    return executor.run_thread(iter(ops), thread_id=0, num_threads=1)


def _team(factory, num_threads: int, name: str = "t"):
    executor = AbstractExecutor(BASE)
    return executor.run_team(name, [factory] * num_threads, num_threads)


# -- abstract executor ------------------------------------------------------

def test_compute_cost_uses_issue_width():
    s = _run_one(Compute(100))
    assert s.est_cycles == (100 + BASE.issue_width - 1) // BASE.issue_width
    assert s.instructions == 100
    assert s.computes == 1


def test_first_touch_is_cold_miss_repeat_is_hit():
    s = _run_one(Load(0x1000), Load(0x1008), Load(0x2000))
    cold = (BASE.l3_latency + BASE.bus_latency
            + BASE.bus_cycles_per_line + BASE.dram_row_hit_latency)
    # Two distinct lines cold, one repeat within the first line.
    assert s.est_cycles == 2 * cold + BASE.l1_latency
    assert s.est_bus_busy == 2 * BASE.bus_cycles_per_line
    assert s.distinct_lines == 2


def test_cs_cycles_attributed_while_lock_held():
    s = _run_one(Compute(10), Lock(1), Compute(10), Unlock(1), Compute(10))
    per_compute = (10 + BASE.issue_width - 1) // BASE.issue_width
    # CS share: the Lock op plus the protected compute (the Unlock's own
    # cycle lands after the lock is released).
    assert s.est_cs_cycles == per_compute + 1
    assert s.cs_instructions == 10
    assert len(s.lock_regions) == 1
    region = s.lock_regions[0]
    assert region.closed and region.instructions == 10


def test_counter_stub_is_monotone_abstract_clock():
    def program() -> Iterator[Op]:
        first = yield ReadCounter(CounterKind.CYCLES)
        yield Compute(100)
        second = yield ReadCounter(CounterKind.CYCLES)
        assert second > first
        yield Store(0x40 * (second - first))

    s = AbstractExecutor(BASE).run_thread(program(), 0, 1)
    assert s.counter_reads == 2
    assert s.stores == 1


def test_lock_faults_recorded_not_raised():
    s = _run_one(Lock(1), Lock(1), Unlock(1), Unlock(1), Unlock(2))
    kinds = [f.kind for f in s.lock_faults]
    assert "static-double-acquire" in kinds
    assert "static-unlock-of-unheld" in kinds


def test_held_at_exit_recorded():
    s = _run_one(Lock(4), Compute(2))
    assert [f.kind for f in s.lock_faults] == ["static-held-at-exit"]
    assert s.lock_faults[0].lock_id == 4


def test_unlock_mismatch_recovers_without_cascade():
    s = _run_one(Lock(1), Lock(2), Unlock(1), Unlock(2))
    assert [f.kind for f in s.lock_faults] == ["static-unlock-mismatch"]


def test_lock_order_edges_recorded_once():
    s = _run_one(Lock(1), Lock(2), Unlock(2), Unlock(1),
                 Lock(1), Lock(2), Unlock(2), Unlock(1))
    assert list(s.lock_order_edges) == [(1, 2)]


def test_op_budget_truncates_and_suppresses_exit_faults(monkeypatch):
    monkeypatch.setattr(executor_mod, "MAX_OPS_PER_THREAD", 100)

    def endless() -> Iterator[Op]:
        while True:
            yield Compute(1)

    s = AbstractExecutor(BASE).run_thread(endless(), 0, 1)
    assert s.truncated
    assert s.ops == 100

    def endless_locked() -> Iterator[Op]:
        yield Lock(0)
        while True:
            yield Compute(1)

    s = AbstractExecutor(BASE).run_thread(endless_locked(), 0, 1)
    assert s.truncated
    assert not s.lock_faults  # held-at-exit unknown for truncated streams


def test_rejects_foreign_op():
    with pytest.raises(TypeError):
        _run_one("not-an-op")  # type: ignore[arg-type]


# -- passes -----------------------------------------------------------------

def test_barrier_sequence_divergence_detected():
    def factory_for(tid_barrier: dict[int, int]):
        def factory(tid: int, team: int) -> Iterator[Op]:
            yield Compute(1)
            yield BarrierWait(tid_barrier[tid])
        return factory

    executor = AbstractExecutor(BASE)
    team = executor.run_team(
        "diverge", [factory_for({0: 0, 1: 1})] * 2, 2)
    findings = barrier_findings(team)
    assert [f.kind for f in findings] == ["static-barrier-sequence-divergence"]


def test_barrier_pass_skips_truncated_threads(monkeypatch):
    monkeypatch.setattr(executor_mod, "MAX_OPS_PER_THREAD", 50)

    def short(tid: int, team: int) -> Iterator[Op]:
        yield BarrierWait(0)

    def endless(tid: int, team: int) -> Iterator[Op]:
        while True:
            yield Compute(1)

    team = AbstractExecutor(BASE).run_team("trunc", [short, endless], 2)
    assert team.truncated
    assert barrier_findings(team) == []


def test_empty_critical_section_lint():
    def factory(tid: int, team: int) -> Iterator[Op]:
        yield Lock(5)
        yield Unlock(5)

    team = _team(factory, 1)
    kinds = [f.kind for f in lint_findings(team)]
    assert kinds == ["static-empty-critical-section"]


def test_degenerate_compute_lint():
    team = _team(lambda tid, team: iter([Compute(0)]), 1)
    kinds = [f.kind for f in lint_findings(team)]
    assert "static-degenerate-compute" in kinds


def test_lock_order_cycle_across_threads():
    def factory(tid: int, team: int) -> Iterator[Op]:
        first, second = (0, 1) if tid == 0 else (1, 0)
        yield Lock(first)
        yield Lock(second)
        yield Unlock(second)
        yield Unlock(first)

    team = _team(factory, 2)
    assert lock_fault_findings(team) == []
    findings = lock_order_findings(team)
    assert [f.kind for f in findings] == ["static-lock-order-cycle"]
    assert sorted(findings[0].details["locks"]) == [0, 1]


def test_profile_reports_cs_and_footprint():
    def factory(tid: int, team: int) -> Iterator[Op]:
        yield Load(0x1000 + tid * 0x40)
        yield Load(0x9000)  # shared by both threads
        yield Lock(0)
        yield Compute(10)
        yield Unlock(0)

    team = _team(factory, 2)
    profile = profile_team(team, BASE)
    assert profile["critical_sections"]["regions"] == 2
    assert profile["critical_sections"]["instructions"] == 20
    assert profile["footprint"]["lines"] == 3
    assert profile["footprint"]["shared_lines"] == 1
    assert profile["footprint"]["bytes"] == 3 * BASE.line_bytes
    json.dumps(profile)  # JSON-ready by construction


def test_team_priors_requires_team_of_one():
    team = _team(lambda tid, t: iter([Compute(4)]), 2)
    with pytest.raises(ValueError):
        team_priors(team, 1, BASE)


def test_derive_priors_square_root_law():
    # 1% critical section -> P_CS == round(sqrt(99)) == 10.
    priors = derive_priors("k", iterations=1, est_cycles=10_000,
                           est_cs_cycles=100, est_bus_busy=0,
                           instructions=20_000, footprint_lines=8,
                           config=BASE)
    assert priors.estimates.p_cs == 10
    assert priors.estimates.p_bw == BASE.num_thread_slots  # bus untouched
    assert priors.estimates.p_fdt == 10
    assert priors.footprint_bytes == 8 * BASE.line_bytes


# -- fixtures: the three seeded defects ------------------------------------

FIXTURE_CODES = {
    "static-deadlock": "static-lock-order-cycle",
    "static-barrier-mismatch": "static-barrier-count-mismatch",
    "static-counter-in-cs": "static-counter-in-cs",
}


@pytest.mark.parametrize("fixture,code", sorted(FIXTURE_CODES.items()))
def test_seeded_fixture_detected(fixture: str, code: str):
    report = analyze_workload(fixture, scale=1.0)
    assert not report.clean
    assert code in report.counts()
    assert all(f.analysis == STATIC for f in report.findings)


def test_fixture_codes_are_distinct():
    codes = {
        fixture: set(analyze_workload(fixture, scale=1.0).counts())
        for fixture in FIXTURE_CODES
    }
    for fixture, expected in FIXTURE_CODES.items():
        others = set().union(*(codes[o] for o in codes if o != fixture))
        assert expected in codes[fixture]
        assert expected not in others


def test_fixture_registry_lists_all_three():
    assert sorted(n for n in FIXTURES if n.startswith("static-")) == sorted(
        FIXTURE_CODES)
    assert all(build(1.0).name == name for name, build in FIXTURES.items())


def test_both_checkers_resolve_names_through_one_function():
    from repro.check import check_workload
    from repro.check.runner import resolve

    assert set(FIXTURE_CODES) < set(FIXTURES)  # + the sanitizer's three
    assert resolve("static-deadlock") is FIXTURES["static-deadlock"]
    assert resolve("pagemine") == get("PageMine").build
    messages = []
    for checker in (check_workload, analyze_workload):
        with pytest.raises(WorkloadError) as excinfo:
            checker("no-such-workload")
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]
    assert all(name in messages[0] for name in FIXTURES)


# -- Table 2 workloads analyze clean ---------------------------------------

@pytest.mark.parametrize("name", [s.name for s in all_specs()])
@pytest.mark.parametrize("threads", [1, 4, 16])
def test_table2_workload_is_statically_clean(name: str, threads: int):
    report = analyze_workload(name, scale=0.1, thread_counts=(threads,))
    assert report.clean, (
        f"{name} at {threads} threads: {[f.message for f in report.findings]}")
    assert not report.truncated
    assert report.priors  # the team-of-one always runs


# -- priors vs measured -----------------------------------------------------

@pytest.mark.parametrize("name", ["EP", "PageMine"])
def test_static_prior_within_tolerance_of_measured(name: str):
    scale = 0.5
    report = analyze_workload(name, scale=scale)
    for kernel in get(name).build(scale).kernels:
        prior = report.priors[kernel.name]
        measured = measure_estimates(kernel)
        agreement = prior.agreement(measured)
        assert measured.cs_fraction > 0, "these workloads have a CS"
        assert agreement.cs_fraction_rel_error <= CS_FRACTION_RTOL, (
            f"{kernel.name}: static {prior.estimates.cs_fraction:.4f} vs "
            f"measured {measured.cs_fraction:.4f}")
        assert agreement.within_tolerance
        json.dumps(agreement.to_dict())


# -- analyzer plumbing ------------------------------------------------------

class _StatefulKernel(TeamParallelKernel):
    """Records how many times it was built (via the builder callable)."""

    name = "stateful"
    builds = 0

    def __init__(self) -> None:
        self._iterations = 1

    @property
    def total_iterations(self) -> int:
        return self._iterations

    def team_iteration(self, i: int, thread_id: int,
                       num_threads: int) -> Iterator[Op]:
        yield Compute(8)
        yield BarrierWait(0)


def _build_stateful() -> Application:
    _StatefulKernel.builds += 1
    return Application.single(_StatefulKernel())


def test_analyzer_builds_fresh_app_per_team_size():
    _StatefulKernel.builds = 0
    analyze_application(_build_stateful, thread_counts=(1, 2, 4))
    assert _StatefulKernel.builds == 3


def test_analyzer_always_includes_team_of_one():
    report = analyze_application(_build_stateful, thread_counts=(4,))
    assert "stateful" in report.priors
    assert report.thread_counts == (4,)


def test_analyzer_dedupes_across_team_sizes():
    report = analyze_workload("static-counter-in-cs", scale=1.0)
    # Two iterations x three team sizes, but one defect site: the
    # counter-in-CS findings collapse to one per (thread, op) witness.
    counter_findings = [f for f in report.findings
                       if f.kind == "static-counter-in-cs"]
    keys = {(f.details["thread"], f.details["index"])
            for f in counter_findings}
    assert len(counter_findings) == len(keys)


def test_analyzer_rejects_bad_team_sizes():
    with pytest.raises(WorkloadError):
        analyze_application(_build_stateful, thread_counts=())
    with pytest.raises(WorkloadError):
        analyze_application(_build_stateful, thread_counts=(0,))


def test_unknown_workload_error_lists_fixtures():
    with pytest.raises(WorkloadError, match="static-deadlock"):
        analyze_workload("no-such-workload")


def test_report_round_trips_to_json():
    report = analyze_workload("static-deadlock", scale=1.0)
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["workload"] == "static-deadlock"
    assert payload["clean"] is False
    assert payload["counts"]["static-lock-order-cycle"] >= 1
    cycle = next(f for f in payload["findings"]
                 if f["kind"] == "static-lock-order-cycle")
    assert cycle["details"]["cycle"] == [0, 1, 2, 0]
    assert [(e["held"], e["wanted"]) for e in cycle["details"]["edges"]] == [
        (0, 1), (1, 2), (2, 0)]
    assert payload["priors"]["static-deadlock"]["p_fdt"] >= 1


def test_as_check_report_feeds_shared_formatter():
    from repro.analysis.report import format_findings

    report = analyze_workload("static-barrier-mismatch", scale=1.0)
    text = format_findings(report.as_check_report())
    assert "static-barrier-count-mismatch" in text
    assert "FAIL" in text


def test_max_findings_cap_counts_dropped(monkeypatch):
    monkeypatch.setattr(findings_mod, "MAX_FINDINGS", 5)

    def factory(tid: int, team: int) -> Iterator[Op]:
        for lock in range(50):  # one empty-critical-section finding each
            yield Lock(lock)
            yield Unlock(lock)

    report = analyze_application(
        lambda: Application.single(
            _FactoryKernel(factory), name="many-lints"),
        thread_counts=(1,))
    assert len(report.findings) == 5
    assert report.dropped > 0


class _FactoryKernel(TeamParallelKernel):
    """Wrap a raw factory for analyzer tests."""

    name = "factory-kernel"

    def __init__(self, factory) -> None:
        self._factory = factory

    @property
    def total_iterations(self) -> int:
        return 1

    def team_iteration(self, i: int, thread_id: int,
                       num_threads: int) -> Iterator[Op]:
        yield from self._factory(thread_id, num_threads)
