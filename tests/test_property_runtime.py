"""Property-based tests for the lock and barrier managers (hypothesis)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.barriers import BarrierManager
from repro.runtime.locks import LockManager
from repro.sim.config import MachineConfig
from repro.sim.ring import Ring
from tests.programs import holder, pending, waiters


def managers(num_agents: int = 8):
    cfg = MachineConfig.small(num_cores=8)
    ring = Ring(cfg.num_cores + cfg.l3_banks)
    nodes = list(range(num_agents))
    return (LockManager(cfg, ring, nodes), BarrierManager(cfg, ring, nodes))


@given(order=st.permutations(range(6)))
@settings(max_examples=60)
def test_lock_grants_follow_fifo_arrival_order(order):
    locks, _ = managers()
    first = order[0]
    grant0 = locks.acquire(0, first, now=0)
    assert grant0 is not None
    for i, agent in enumerate(order[1:], start=1):
        assert locks.acquire(0, agent, now=i) is None
    served = [first]
    now = grant0 + 10
    while waiters(locks, 0):
        handoff = locks.release(0, served[-1], now)
        assert handoff is not None
        nxt, grant = handoff
        served.append(nxt)
        now = grant + 10
    locks.release(0, served[-1], now)
    assert served == list(order)


@given(acquires=st.lists(st.integers(0, 3), min_size=1, max_size=40))
@settings(max_examples=60)
def test_at_most_one_holder_per_lock(acquires):
    """Random acquire storms with immediate releases keep the invariant:
    one holder per lock, grants strictly after requests."""
    locks, _ = managers()
    now = 0
    for agent in acquires:
        grant = locks.acquire(0, agent, now)
        if grant is None:
            # Drain the queue: the holder releases until this agent runs.
            while holder(locks, 0) != agent:
                handoff = locks.release(0, holder(locks, 0), now + 5)
                assert handoff is not None
                now = handoff[1]
            grant = now
        assert grant >= 0
        handoff = locks.release(0, agent, grant + 3)
        now = handoff[1] if handoff else grant + 3
        # after release-with-handoff the next holder is set; release them
        while holder(locks, 0) is not None:
            handoff = locks.release(0, holder(locks, 0), now + 1)
            now = handoff[1] if handoff else now + 1
    assert holder(locks, 0) is None


@given(team=st.integers(2, 8), arrival_gaps=st.lists(
    st.integers(0, 100), min_size=8, max_size=8))
@settings(max_examples=60)
def test_barrier_releases_whole_team_after_last_arrival(team, arrival_gaps):
    _, barriers = managers()
    now = 0
    releases = None
    for agent in range(team):
        now += arrival_gaps[agent]
        releases = barriers.arrive(0, agent, team, now)
        if agent < team - 1:
            assert releases is None
    assert releases is not None
    assert {a for a, _t in releases} == set(range(team))
    # No one is released before the last arrival.
    assert all(t >= now for _a, t in releases)


@given(team=st.integers(1, 8), generations=st.integers(1, 5))
@settings(max_examples=40)
def test_barrier_generations_are_independent(team, generations):
    _, barriers = managers()
    now = 0
    for g in range(generations):
        for agent in range(team):
            out = barriers.arrive(7, agent, team, now + agent)
            if agent == team - 1:
                assert out is not None
            else:
                assert out is None
        now += 1000
    assert barriers.stats.episodes == generations
    assert pending(barriers, 7) == 0
