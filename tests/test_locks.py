"""Unit tests for the FIFO lock manager."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import SimulationError
from repro.runtime.locks import LockManager
from repro.sim.config import MachineConfig
from repro.sim.ring import Ring
from tests.programs import holder, waiters


def make_locks(**config_overrides) -> LockManager:
    cfg = replace(MachineConfig.small(num_cores=4), **config_overrides)
    ring = Ring(cfg.num_cores + cfg.l3_banks)
    return LockManager(cfg, ring, core_nodes=list(range(cfg.num_cores)))


@pytest.fixture
def locks() -> LockManager:
    return make_locks()


def test_free_lock_granted_immediately(locks: LockManager):
    grant = locks.acquire(0, core=1, now=100)
    assert grant is not None and grant >= 100
    assert holder(locks, 0) == 1


def test_contended_acquire_queues(locks: LockManager):
    locks.acquire(0, core=0, now=0)
    assert locks.acquire(0, core=1, now=5) is None
    assert waiters(locks, 0) == 1
    assert locks.stats.contended_acquisitions == 1


def test_release_hands_off_in_fifo_order(locks: LockManager):
    locks.acquire(0, core=0, now=0)
    locks.acquire(0, core=2, now=1)
    locks.acquire(0, core=1, now=2)
    next_core, grant = locks.release(0, core=0, now=50)
    assert next_core == 2
    assert grant > 50
    next_core, grant2 = locks.release(0, core=2, now=grant + 10)
    assert next_core == 1


def test_release_without_waiters_frees_lock(locks: LockManager):
    grant = locks.acquire(0, core=0, now=0)
    assert locks.release(0, core=0, now=grant + 10) is None
    assert holder(locks, 0) is None


def test_release_by_non_holder_raises(locks: LockManager):
    locks.acquire(0, core=0, now=0)
    with pytest.raises(SimulationError):
        locks.release(0, core=1, now=5)


def test_release_of_unknown_lock_raises(locks: LockManager):
    with pytest.raises(SimulationError):
        locks.release(42, core=0, now=0)


def test_reacquire_by_last_holder_is_cheap(locks: LockManager):
    g1 = locks.acquire(0, core=0, now=0)
    locks.release(0, core=0, now=g1 + 5)
    g2 = locks.acquire(0, core=0, now=g1 + 10)
    assert g2 - (g1 + 10) <= 2  # lock line still resident


def test_handoff_to_distant_core_costs_more(locks: LockManager):
    g1 = locks.acquire(0, core=0, now=0)
    locks.release(0, core=0, now=g1 + 1)
    near = locks.acquire(1, core=0, now=g1 + 1)  # fresh lock, no last holder
    g2 = locks.acquire(0, core=2, now=g1 + 2)  # handoff from core 0 to 2
    cost_far = g2 - (g1 + 2)
    assert cost_far >= MachineConfig.small().lock_handoff_base


def test_hold_cycles_accumulate(locks: LockManager):
    g = locks.acquire(0, core=0, now=0)
    locks.release(0, core=0, now=g + 123)
    assert locks.stats.total_hold_cycles == 123


def test_wait_cycles_accumulate(locks: LockManager):
    locks.acquire(0, core=0, now=0)
    locks.acquire(0, core=1, now=10)
    _next, grant = locks.release(0, core=0, now=200)
    assert locks.stats.total_wait_cycles == grant - 10


def test_independent_locks_do_not_interact(locks: LockManager):
    locks.acquire(0, core=0, now=0)
    grant = locks.acquire(1, core=1, now=0)
    assert grant is not None
    assert holder(locks, 0) == 0
    assert holder(locks, 1) == 1


def test_lifo_grant_order_pops_newest_waiter():
    locks = make_locks(lock_grant_order="lifo")
    locks.acquire(0, core=0, now=0)
    locks.acquire(0, core=1, now=1)
    locks.acquire(0, core=2, now=2)
    next_core, grant = locks.release(0, core=0, now=50)
    assert next_core == 2  # newest waiter wins under LIFO
    next_core, _grant = locks.release(0, core=2, now=grant + 5)
    assert next_core == 1


def test_fresh_lock_grant_is_resident_latency(locks: LockManager):
    # No last holder: the lock line is born resident, 2-cycle grant.
    assert locks.acquire(7, core=3, now=100) == 102


def test_same_core_reacquire_costs_resident_latency(locks: LockManager):
    g1 = locks.acquire(0, core=2, now=0)
    locks.release(0, core=2, now=g1 + 8)
    # Same core re-acquires: line still in its cache in M state.
    assert locks.acquire(0, core=2, now=g1 + 20) == g1 + 22


def test_cross_core_handoff_beats_resident_latency(locks: LockManager):
    g1 = locks.acquire(0, core=0, now=0)
    locks.release(0, core=0, now=g1 + 1)
    grant = locks.acquire(0, core=3, now=g1 + 10)
    base = MachineConfig.small().lock_handoff_base
    assert grant - (g1 + 10) >= base  # migration >> resident 2 cycles


def test_release_of_never_created_lock_raises(locks: LockManager):
    locks.acquire(0, core=0, now=0)  # manager is live, lock 9 is not
    with pytest.raises(SimulationError):
        locks.release(9, core=0, now=5)


def test_any_held_reflects_state(locks: LockManager):
    assert locks.any_held() is False
    g = locks.acquire(0, core=0, now=0)
    assert locks.any_held() is True
    locks.release(0, core=0, now=g + 1)
    assert locks.any_held() is False
