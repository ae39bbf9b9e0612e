"""Tests for the verdicts of the program checker (``repro check``).

Positive controls must trip exactly their finding kind; the twelve
Table 2 workloads must check clean at the teams ``repro check`` runs;
the report must name what it checked and serialize to JSON.  The
abstract executor's own passes are ``test_static_check.py``.
"""

from __future__ import annotations

import json
from typing import Callable, Iterator

import pytest

from repro.check import analyze_application, analyze_workload
from repro.check import findings as findings_mod
from repro.check.lockorder import lock_order_cycles
from repro.errors import WorkloadError
from repro.fdt.kernel import TeamParallelKernel
from repro.fdt.runner import Application
from repro.isa.ops import BarrierWait, Compute, Load, Op, Store
from repro.sim.config import MachineConfig
from repro.workloads import all_specs
from repro.workloads.base import LINE, AddressSpace
from repro.workloads.synthetic import FIXTURES, build_synthetic

RACE = "static-empty-lockset"


class _TeamKernel(TeamParallelKernel):
    """One iteration of a raw ``(thread_id, team) -> ops`` program."""

    name = "team-kernel"

    def __init__(self, program: Callable[[int, int], Iterator[Op]]) -> None:
        self._program = program

    @property
    def total_iterations(self) -> int:
        return 1

    def team_iteration(self, iteration: int, thread_id: int,
                       num_threads: int) -> Iterator[Op]:
        yield from self._program(thread_id, num_threads)


def _check(program, threads: int):
    return analyze_application(
        lambda: Application.single(_TeamKernel(program), name="team"),
        thread_counts=(threads,))


# -- positive controls ------------------------------------------------------

def test_racy_fixture_reports_race_with_address():
    app = FIXTURES["synthetic-racy"](1.0)
    shared = app.kernels[0].shared_addr
    report = analyze_application(lambda: app)
    [finding] = report.findings
    assert finding.kind == RACE
    assert finding.details["address"] == shared
    assert finding.details["address_hex"] == f"{shared:#x}"
    assert f"{shared:#x}" in finding.message
    assert len(finding.details["threads"]) >= 2


def test_ignore_address_ranges_silences_the_race():
    """docs/check.md's recipe for an intentionally unprotected access:
    drop the ``static-empty-lockset`` findings on that address."""
    app = FIXTURES["synthetic-racy"](1.0)
    shared = app.kernels[0].shared_addr
    report = analyze_application(lambda: app)
    assert not report.clean
    kept = [f for f in report.findings
            if not (f.kind == RACE and f.details["address"] == shared)]
    assert kept == []


def test_static_deadlock_reports_the_race():
    """Each writer holds two of the three locks, and no lock is common
    to all of them: the lock-order cycle and the race are both real."""
    report = analyze_workload("static-deadlock", scale=1.0)
    assert set(report.counts()) == {"static-lock-order-cycle", RACE}
    race = next(f for f in report.findings if f.kind == RACE)
    assert {tuple(locks) for locks in race.details["locksets"].values()} == {
        (0, 1), (1, 2), (0, 2)}


def test_lock_inversion_fixture_reports_cycle_naming_locks():
    report = analyze_workload("synthetic-lock-inversion", scale=1.0)
    [finding] = report.findings  # the store holds both locks: no race
    assert finding.kind == "static-lock-order-cycle"
    assert finding.details["locks"] == [0, 1]


def test_unheld_unlock_fixture_reports_unlock_of_unheld():
    report = analyze_workload("synthetic-unheld-unlock", scale=1.0)
    assert set(report.counts()) == {"static-unlock-of-unheld"}


def test_a_kind_filter_selects_each_positive_control():
    """What a caller leaves out is a filter on ``Finding.kind``: the racy
    fixture has only its race, the inversion only its cycle."""
    assert [f.kind for f in analyze_workload("synthetic-racy").findings] == [
        RACE]
    assert [f.kind for f in analyze_workload(
        "synthetic-lock-inversion").findings] == ["static-lock-order-cycle"]


def test_check_workload_resolves_fixture_names():
    report = analyze_workload("synthetic-racy")
    assert report.workload == "synthetic-racy"
    assert report.counts() == {RACE: 1}


def test_check_workload_rejects_unknown_names():
    with pytest.raises(WorkloadError, match="synthetic-racy"):
        analyze_workload("NoSuchThing")


# -- the Table 2 roster must be clean ---------------------------------------

@pytest.mark.parametrize("name", [s.name for s in all_specs()])
def test_table2_workload_checks_clean(name: str):
    """What ``repro check NAME`` analyzes: teams of 1, 4 and 16."""
    report = analyze_workload(name, scale=0.1)
    assert report.clean, (
        f"{name} is not clean:\n" + "\n".join(f.message
                                              for f in report.findings))
    assert report.thread_counts == (1, 4, 16)
    assert report.priors and report.profiles


def test_locked_synthetic_kernel_checks_clean():
    app = build_synthetic(cs_fraction=0.2, bus_lines=4, iterations=16)
    assert analyze_application(lambda: app).clean


class _PhasedKernel(TeamParallelKernel):
    """Each iteration one thread writes the shared line; a barrier
    separates iterations, so rotating the writer is race-free."""

    name = "phased"

    def __init__(self) -> None:
        self.shared = AddressSpace().alloc(LINE)

    @property
    def total_iterations(self) -> int:
        return 8

    def team_iteration(self, iteration: int, thread_id: int,
                       num_threads: int) -> Iterator[Op]:
        yield Compute(30 + 7 * thread_id)
        if iteration % num_threads == thread_id:
            yield Store(self.shared)
        yield BarrierWait(0)


def test_barrier_epochs_suppress_phased_writer_rotation():
    """Plain Eraser would flag write-barrier-write by different threads;
    the barrier epoch treats each generation as a fresh fence."""
    report = analyze_application(lambda: Application.single(_PhasedKernel()))
    assert report.clean


def test_read_write_sharing_is_not_reported():
    """One writer and any number of readers models false sharing on a
    line-aligned representative address, not a race."""
    def program(tid: int, team: int) -> Iterator[Op]:
        yield Store(0x1000) if tid == 0 else Load(0x1000)
        yield Store(0x1000) if tid == 0 else Load(0x1000)

    assert RACE not in _check(program, 4).counts()


def test_max_findings_cap_counts_dropped(monkeypatch):
    monkeypatch.setattr(findings_mod, "MAX_FINDINGS", 1)

    def program(tid: int, team: int) -> Iterator[Op]:
        yield Store(0x1000)
        yield Store(0x2000)

    report = _check(program, 2)
    assert [f.kind for f in report.findings] == [RACE]
    assert report.dropped == 1


# -- the report names what it checked ------------------------------------------

def test_one_slot_machine_is_checked():
    """A static team needs no thread slots: a one-core machine is checked
    at the same teams, not refused."""
    one = MachineConfig.baseline_with(cores=1)
    report = analyze_workload("synthetic-racy", config=one)
    assert report.thread_counts == (1, 4, 16)
    assert report.counts() == {RACE: 1}


def test_report_names_the_team_that_ran():
    report = analyze_workload("synthetic-racy", thread_counts=(2,))
    assert report.thread_counts == (2,)
    [finding] = report.findings
    assert finding.details["num_threads"] == 2
    assert finding.details["threads"] == [0, 1]


def test_report_json_is_machine_readable():
    report = analyze_workload("synthetic-racy")
    parsed = json.loads(json.dumps(report.to_dict()))
    assert parsed["clean"] is False
    assert parsed["workload"] == "synthetic-racy"
    assert parsed["counts"][RACE] >= 1
    assert parsed["findings"][0]["details"]["address_hex"].startswith("0x")


def test_clean_report_counts_are_all_zero():
    report = analyze_workload("EP", scale=0.1)
    assert report.clean
    assert not any(report.counts().values())
    assert json.loads(json.dumps(report.to_dict()))["counts"] == {}


# -- the lock-order cycle finder -------------------------------------------------

def test_lock_order_cycles_two_cycle():
    edges = {(0, 1): "a", (1, 0): "b"}
    [(component, cycle, witnesses)] = lock_order_cycles(edges)
    assert component == {0, 1}
    assert cycle == [0, 1, 0]
    assert witnesses == [(0, 1), (1, 0)]


def test_lock_order_cycles_three_cycle_of_static_deadlock():
    edges = [(0, 1), (1, 2), (2, 0)]
    [(component, cycle, witnesses)] = lock_order_cycles(edges)
    assert component == {0, 1, 2}
    assert cycle == [0, 1, 2, 0]
    assert witnesses == edges


def test_lock_order_cycles_acyclic_graph_has_none():
    assert list(lock_order_cycles([(0, 1), (1, 2), (0, 2)])) == []
    assert list(lock_order_cycles([])) == []
