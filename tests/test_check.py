"""Tests for the thread sanitizer (repro.check).

Positive controls must trip exactly their analysis; the twelve Table 2
workloads must check clean.  That the sanitizer is a pure observer —
enabling it cannot move a single cycle — is ``test_parity.py``.
"""

from __future__ import annotations

import json
from typing import Iterator

import pytest

from repro.check import (
    DISCIPLINE,
    LOCK_ORDER,
    RACE,
    RUNTIME,
    ThreadSanitizer,
    check_application,
    check_workload,
)
from repro.check import findings as findings_mod
from repro.check.discipline import DisciplineLinter
from repro.check.findings import AccessSite, CheckReport, Finding
from repro.check.lockorder import lock_order_cycles
from repro.check.lockset import LocksetRaceDetector
from repro.errors import ConfigError, WorkloadError
from repro.fdt.kernel import TeamParallelKernel
from repro.fdt.runner import Application
from repro.isa.ops import BarrierWait, Compute, CounterKind, Op, Store
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.workloads import all_specs
from repro.workloads.base import LINE, AddressSpace
from repro.workloads.synthetic import FIXTURES, build_synthetic


def of(report: CheckReport, analysis: str) -> tuple[Finding, ...]:
    """The findings one analysis produced."""
    return tuple(f for f in report.findings if f.analysis == analysis)


def _site(agent: int, index: int = 1, kind: str = "store",
          cycle: int = 0) -> AccessSite:
    return AccessSite(agent=agent, index=index, kind=kind, cycle=cycle)


# -- positive controls ------------------------------------------------------

def test_racy_fixture_reports_race_with_address_and_sites():
    app = FIXTURES["synthetic-racy"](1.0)
    kernel = app.kernels[0]
    report = check_application(app)
    races = of(report, RACE)
    assert not report.clean
    assert races, "the seeded race must be detected"
    finding = races[0]
    assert finding.kind == "empty-lockset"
    assert finding.details["address"] == kernel.shared_addr
    assert f"{kernel.shared_addr:#x}" in finding.message
    assert len(finding.details["writers"]) >= 2
    sites = finding.details["sites"]
    assert sites and {"agent", "index", "kind", "cycle"} <= sites[0].keys()


def test_lock_inversion_fixture_reports_cycle_naming_locks():
    report = check_application(FIXTURES["synthetic-lock-inversion"](1.0))
    assert report.aborted is None, "FIFO grant order must dodge the deadlock"
    cycles = of(report, LOCK_ORDER)
    assert cycles, "the latent inversion must still be reported"
    finding = cycles[0]
    assert finding.kind == "lock-order-cycle"
    assert set(finding.details["locks"]) == {0, 1}
    assert not of(report, RACE), "the store is lock-protected"


def test_unheld_unlock_fixture_reports_discipline_and_abort():
    report = check_application(FIXTURES["synthetic-unheld-unlock"](1.0))
    assert not report.clean
    kinds = {f.kind for f in of(report, DISCIPLINE)}
    assert "unlock-of-unheld" in kinds
    assert report.aborted is not None
    assert of(report, RUNTIME)[0].kind == "aborted"


def test_check_workload_resolves_fixture_names():
    report = check_workload("synthetic-racy")
    assert of(report, RACE)


def test_check_workload_rejects_unknown_names():
    with pytest.raises(WorkloadError, match="synthetic-racy"):
        check_workload("NoSuchThing")


# -- the Table 2 roster must be clean ---------------------------------------

@pytest.mark.parametrize("name", [s.name for s in all_specs()])
def test_table2_workload_checks_clean(name: str):
    report = check_workload(name, scale=0.1)
    assert report.clean, (
        f"{name} is not clean:\n" + "\n".join(f.message
                                              for f in report.findings))
    assert report.cycles > 0


def test_locked_synthetic_kernel_checks_clean():
    app = build_synthetic(cs_fraction=0.2, bus_lines=4, iterations=16)
    report = check_application(app)
    assert report.clean


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
    report = check_application(Application.single(_PhasedKernel()))
    assert report.clean


# -- pure-observer property: tests/test_parity.py -----------------------------

def test_sanitizer_disabled_by_default():
    machine = Machine(MachineConfig.asplos08_baseline())
    assert machine.observer is None


# -- no configuration: constants, and filters on the report -------------------

def test_ignore_address_ranges_silences_the_race():
    """docs/check.md's recipe for an intentionally unprotected access:
    drop the ``empty-lockset`` findings on that address."""
    app = FIXTURES["synthetic-racy"](1.0)
    shared = app.kernels[0].shared_addr
    report = check_application(app)
    assert not report.clean
    kept = [f for f in report.findings
            if not (f.kind == "empty-lockset"
                    and f.details["address"] == shared)]
    assert kept == [] and report.aborted is None


def test_analysis_toggles_gate_findings():
    """What the analysis switches suppressed is what a filter on
    ``Finding.analysis`` selects: the racy fixture has only race findings, the inversion
    fixture only its lock-order cycle."""
    report = check_workload("synthetic-racy")
    assert of(report, RACE) == report.findings != ()
    assert not of(report, LOCK_ORDER)
    report = check_workload("synthetic-lock-inversion")
    assert of(report, LOCK_ORDER) == report.findings
    assert [f.kind for f in report.findings] == ["lock-order-cycle"]


def test_max_findings_cap_counts_dropped(monkeypatch):
    monkeypatch.setattr(findings_mod, "MAX_FINDINGS", 1)
    det = LocksetRaceDetector()
    for addr in (0x1000, 0x2000):
        det.on_access(0, addr, True, 1, frozenset(), _site(0))
        det.on_access(1, addr, True, 1, frozenset(), _site(1))
    assert len(det.findings) == 1
    assert det.dropped == 1


def test_read_write_sharing_is_not_reported():
    """One writer and any number of readers models false sharing on a
    line-aligned representative address, not a race."""
    det = LocksetRaceDetector()
    det.on_access(0, 0x1000, True, 1, frozenset(), _site(0))
    det.on_access(1, 0x1000, False, 1, frozenset(), _site(1, kind="load"))
    det.on_access(0, 0x1000, True, 1, frozenset(), _site(0, index=2))
    assert det.findings == []


# -- a one-slot machine is refused, not checked vacuously ----------------------

def test_one_slot_machine_is_refused():
    one = MachineConfig.baseline_with(cores=1)
    with pytest.raises(ConfigError, match="1 thread slot"):
        check_workload("synthetic-racy", config=one)


def test_report_names_the_team_that_ran():
    two = MachineConfig.baseline_with(cores=2)
    report = check_workload("synthetic-racy", config=two)
    assert report.threads == 2
    assert {a for f in report.findings
            for a in f.details["agents"]} == {0, 1}


# -- the shared lock-order cycle report ----------------------------------------

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


# -- discipline lint units -----------------------------------------------------

def _linter() -> DisciplineLinter:
    return DisciplineLinter()


def test_discipline_double_acquire():
    lint = _linter()
    lint.on_lock_request(3, agent=1, held=[3], now=10)
    assert lint.findings[0].kind == "double-acquire"
    assert lint.findings[0].details["lock"] == 3


def test_discipline_held_at_exit():
    lint = _linter()
    lint.on_thread_exit(agent=2, held=[0, 1], now=99)
    assert lint.findings[0].kind == "held-at-exit"
    assert lint.findings[0].details["held"] == [0, 1]


def test_discipline_counter_in_critical_section_dedupes():
    lint = _linter()
    lint.on_read_counter(0, CounterKind.CYCLES, held=[5], now=1)
    lint.on_read_counter(1, CounterKind.CYCLES, held=[5], now=2)
    lint.on_read_counter(0, CounterKind.CYCLES, held=[], now=3)
    assert len(lint.findings) == 1
    assert lint.findings[0].kind == "counter-in-critical-section"


def test_discipline_inconsistent_team_size():
    lint = _linter()
    lint.on_region_begin()
    lint.on_barrier_arrive(0, agent=0, team_size=2, now=0)
    lint.on_barrier_arrive(0, agent=1, team_size=3, now=1)
    assert lint.findings[0].kind == "inconsistent-barrier-team"


def test_discipline_membership_change_between_generations():
    lint = _linter()
    lint.on_region_begin()
    for agent in (0, 1):
        lint.on_barrier_arrive(0, agent, team_size=2, now=0)
    lint.on_barrier_release(0, [0, 1], now=5)
    for agent in (0, 2):
        lint.on_barrier_arrive(0, agent, team_size=2, now=10)
    lint.on_barrier_release(0, [0, 2], now=15)
    assert lint.findings[0].kind == "inconsistent-barrier-team"


def test_discipline_incomplete_barrier_on_finish_is_idempotent():
    lint = _linter()
    lint.on_barrier_arrive(0, agent=0, team_size=2, now=0)
    lint.finish()
    lint.finish()
    kinds = [f.kind for f in lint.findings]
    assert kinds == ["incomplete-barrier"]


# -- sanitizer hub state -------------------------------------------------------

def test_sanitizer_tracks_held_locks_and_epoch():
    san = ThreadSanitizer()
    san.on_region_begin(2, now=0)
    epoch = san._epoch
    san.on_lock_acquired(7, agent=0, grant=1)
    assert san._held[0] == [7]
    san.on_lock_released(7, agent=0, now=2)
    assert san._held[0] == []
    san.on_barrier_release(0, [(0, 3), (1, 3)], now=3)
    assert san._epoch == epoch + 1


# -- report model ---------------------------------------------------------------

def test_report_json_is_machine_readable():
    report = check_workload("synthetic-racy")
    parsed = json.loads(json.dumps(report.to_dict()))
    assert parsed["clean"] is False
    assert parsed["workload"]
    assert parsed["counts"][RACE] >= 1
    assert parsed["findings"][0]["details"]["address_hex"].startswith("0x")


def test_clean_report_counts_are_all_zero():
    report = check_workload("EP", scale=0.1)
    assert report.clean
    assert set(report.counts().values()) == {0}
