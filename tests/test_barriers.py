"""Unit tests for the sense-reversing barrier manager."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.runtime.barriers import BarrierManager
from repro.sim.config import MachineConfig
from repro.sim.ring import Ring
from tests.programs import pending


@pytest.fixture
def barriers() -> BarrierManager:
    cfg = MachineConfig.small(num_cores=4)
    ring = Ring(cfg.num_cores + cfg.l3_banks)
    return BarrierManager(cfg, ring, core_nodes=list(range(cfg.num_cores)))


def test_incomplete_team_waits(barriers: BarrierManager):
    assert barriers.arrive(0, core=0, team_size=3, now=10) is None
    assert barriers.arrive(0, core=1, team_size=3, now=20) is None
    assert pending(barriers, 0) == 2


def test_last_arrival_releases_everyone(barriers: BarrierManager):
    barriers.arrive(0, core=0, team_size=3, now=10)
    barriers.arrive(0, core=1, team_size=3, now=20)
    releases = barriers.arrive(0, core=2, team_size=3, now=30)
    assert releases is not None
    assert {c for c, _t in releases} == {0, 1, 2}
    assert all(t >= 30 for _c, t in releases)
    assert pending(barriers, 0) == 0


def test_release_propagation_scales_with_distance(barriers: BarrierManager):
    barriers.arrive(0, core=0, team_size=2, now=0)
    releases = dict(barriers.arrive(0, core=3, team_size=2, now=100))
    # The last arriver (core 3) releases itself instantly; core 0's
    # release travels over the ring.
    assert releases[3] == 100
    assert releases[0] > 100


def test_single_thread_team_releases_immediately(barriers: BarrierManager):
    releases = barriers.arrive(0, core=0, team_size=1, now=5)
    assert releases == [(0, 5)]


def test_barrier_is_reusable_across_generations(barriers: BarrierManager):
    for generation in range(3):
        now = generation * 100
        assert barriers.arrive(0, core=0, team_size=2, now=now) is None
        releases = barriers.arrive(0, core=1, team_size=2, now=now + 1)
        assert releases is not None
    assert barriers.stats.episodes == 3


def test_double_arrival_same_generation_raises(barriers: BarrierManager):
    barriers.arrive(0, core=0, team_size=3, now=0)
    with pytest.raises(SimulationError):
        barriers.arrive(0, core=0, team_size=3, now=1)


def test_invalid_team_size_raises(barriers: BarrierManager):
    with pytest.raises(SimulationError):
        barriers.arrive(0, core=0, team_size=0, now=0)


def test_distinct_barriers_are_independent(barriers: BarrierManager):
    barriers.arrive(0, core=0, team_size=2, now=0)
    releases = barriers.arrive(1, core=1, team_size=1, now=0)
    assert releases is not None
    assert pending(barriers, 0) == 1


def test_wait_cycles_accumulate(barriers: BarrierManager):
    barriers.arrive(0, core=0, team_size=2, now=0)
    barriers.arrive(0, core=1, team_size=2, now=500)
    assert barriers.stats.total_wait_cycles >= 500


def test_any_waiting(barriers: BarrierManager):
    assert barriers.any_waiting() is False
    barriers.arrive(0, core=0, team_size=2, now=0)
    assert barriers.any_waiting() is True
