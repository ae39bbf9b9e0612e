"""The order of lock, barrier and counter-read events, pinned by hash.

The result pins (``golden.json``, the figures) see cycles and counters;
they cannot see the order in which same-cycle events fire on different
cores, so two wakes of a barrier wave pushed in the other order can
leave every pinned number alone while changing which thread takes a
lock first.  Here a recording observer logs ``(hook, agent, cycle)``
for every lock, barrier and counter-read hook over sync-heavy runs, and
the sha256 of that sequence is pinned.  Attaching the recorder must not
change the run's result either.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.fdt.policies import FdtMode, FdtPolicy
from repro.fdt.runner import run_application
from repro.jobs.results import app_result_to_dict
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.observer import SimObserver
from repro.workloads import get
from repro.workloads.synthetic import build_synthetic

BASE = MachineConfig.asplos08_baseline()


class SyncRecorder(SimObserver):
    """Logs ``(hook, agent, cycle)`` for the lock, barrier and
    counter-read hooks; a barrier release logs one entry per member."""

    def __init__(self) -> None:
        self.events: list[tuple[str, int, int]] = []

    def on_read_counter(self, agent, kind, now) -> None:
        self.events.append(("read_counter", agent, now))

    def on_lock_request(self, lock_id, agent, now) -> None:
        self.events.append(("lock_request", agent, now))

    def on_lock_spin_begin(self, lock_id, agent, now) -> None:
        self.events.append(("lock_spin_begin", agent, now))

    def on_lock_acquired(self, lock_id, agent, grant) -> None:
        self.events.append(("lock_acquired", agent, grant))

    def on_unlock_request(self, lock_id, agent, now) -> None:
        self.events.append(("unlock_request", agent, now))

    def on_lock_released(self, lock_id, agent, now) -> None:
        self.events.append(("lock_released", agent, now))

    def on_barrier_arrive(self, barrier_id, agent, team_size, now) -> None:
        self.events.append(("barrier_arrive", agent, now))

    def on_barrier_release(self, barrier_id, releases, now) -> None:
        self.events.extend(("barrier_release", agent, release)
                           for agent, release in releases)


#: ``id -> (application builder, machine config)``.
RUNS = {
    "PageMine-fdt": (lambda: get("PageMine").build(0.02), BASE),
    "PageMine-fdt-lifo": (lambda: get("PageMine").build(0.02),
                          replace(BASE, lock_grant_order="lifo")),
    "EP-smt2-compact": (lambda: get("EP").build(0.02),
                        replace(BASE.with_smt(2), smt_placement="compact")),
    "synthetic-cs0.3-bus0": (lambda: build_synthetic(0.3, bus_lines=0),
                             BASE),
    "synthetic-cs0.3-bus7": (lambda: build_synthetic(0.3, bus_lines=7),
                             BASE),
}

#: ``id -> (number of events, sha256 of their repr)``.
PINS = {
    "PageMine-fdt": (
        357, "84a1103b831cb8ddb1355c5063ac577a76dbc68db3bf7f8f3db1efc61272078a"),
    "PageMine-fdt-lifo": (
        357, "770afe3c15f6801089d136056b5591bcd04ddf8b6eadb4de975ce9fd05d2af0f"),
    "EP-smt2-compact": (
        264, "872b2ef1385d38864e10409f9a9617d3736f9cbc6a2823096e93cb4260031642"),
    "synthetic-cs0.3-bus0": (
        1661, "9f564cef932996b6f27d82aa67a02e2080387f26035cc0f13a4e192030b64126"),
    "synthetic-cs0.3-bus7": (
        1661, "3e2140149f296b1ac2b667a1efcbfa4088299fc0dec66d063993721a961fabfc"),
}


def _run(build, config, observers=()) -> dict:
    with Machine(config, observers) as machine:
        return app_result_to_dict(run_application(
            build(), FdtPolicy(FdtMode.COMBINED), machine=machine))


@pytest.mark.parametrize("name", RUNS)
def test_sync_event_order_is_pinned(name):
    build, config = RUNS[name]
    count, digest = PINS[name]
    recorder = SyncRecorder()
    observed = _run(build, config, [recorder])
    assert observed == _run(build, config)
    kinds = {hook for hook, _agent, _cycle in recorder.events}
    assert {"read_counter", "lock_acquired", "barrier_release"} <= kinds
    assert len(recorder.events) == count
    assert hashlib.sha256(
        repr(recorder.events).encode()).hexdigest() == digest
