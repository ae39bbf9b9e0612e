"""Unit tests for the sweep/oracle/report analysis helpers."""

from __future__ import annotations

from typing import Iterator

import pytest

from repro.analysis.oracle import oracle_choice
from repro.analysis.report import ascii_bars, ascii_series, ascii_table, gmean
from repro.analysis.sweep import SweepResult, ThreadPoint, sweep_threads
from repro.errors import ConfigError
from repro.fdt.kernel import TeamParallelKernel
from repro.fdt.runner import Application
from repro.isa.ops import BarrierWait, Compute, Lock, Op, Unlock
from repro.sim.config import MachineConfig


class _CsKernel(TeamParallelKernel):
    """Figure-1-style kernel: per-thread merge makes total CS time grow
    linearly with the team, so the sweep has an interior minimum."""

    name = "cs"

    @property
    def total_iterations(self) -> int:
        return 64

    def team_iteration(self, i: int, tid: int, team: int) -> Iterator[Op]:
        yield Compute(1600 // team)
        yield Lock(0)
        yield Compute(200)
        yield Unlock(0)
        yield BarrierWait(0)


def build() -> Application:
    return Application.single(_CsKernel())


@pytest.fixture(scope="module")
def sweep() -> SweepResult:
    return sweep_threads(build, thread_counts=(1, 2, 4, 8),
                         config=MachineConfig.small())


def test_sweep_has_requested_points(sweep: SweepResult):
    assert sweep.thread_counts == (1, 2, 4, 8)


def test_sweep_clamps_to_core_count():
    result = sweep_threads(build, thread_counts=(1, 4, 64),
                           config=MachineConfig.small())
    assert result.thread_counts == (1, 4)


def test_sweep_point_lookup(sweep: SweepResult):
    p = sweep.point(4)
    assert p.threads == 4
    with pytest.raises(ConfigError):
        sweep.point(3)


def test_sweep_normalized_curve_starts_at_one(sweep: SweepResult):
    curve = sweep.normalized_curve(base_threads=1)
    assert curve[0] == pytest.approx(1.0)


def test_sweep_best_threads_interior(sweep: SweepResult):
    # 25% CS: optimum = sqrt(3) ~ 2.
    assert sweep.best_threads in (1, 2, 4)
    assert sweep.min_cycles == sweep.point(sweep.best_threads).cycles


def test_sweep_power_tracks_threads(sweep: SweepResult):
    assert sweep.point(8).power > sweep.point(1).power


def test_sweep_rejects_bad_thread_counts():
    with pytest.raises(ConfigError):
        sweep_threads(build, thread_counts=(0,), config=MachineConfig.small())
    with pytest.raises(ConfigError):
        sweep_threads(build, thread_counts=(64,), config=MachineConfig.small())


# -- oracle ---------------------------------------------------------------------

def test_oracle_picks_fewest_within_tolerance():
    points = tuple(
        ThreadPoint(threads=t, cycles=c, power=t, bus_utilization=0.0)
        for t, c in [(1, 1000), (2, 600), (4, 502), (8, 500), (16, 505)])
    sweep = SweepResult(app_name="x", points=points)
    choice = oracle_choice(sweep, tolerance=0.01)
    assert choice.threads == 4  # 502 within 1% of 500; 600 is not
    assert choice.point.cycles <= 1.01 * choice.min_cycles


def test_oracle_zero_tolerance_picks_minimum():
    points = tuple(
        ThreadPoint(threads=t, cycles=c, power=t, bus_utilization=0.0)
        for t, c in [(1, 1000), (2, 600), (4, 500)])
    sweep = SweepResult(app_name="x", points=points)
    assert oracle_choice(sweep, tolerance=0.0).threads == 4


def test_oracle_rejects_negative_tolerance():
    points = (ThreadPoint(1, 100, 1.0, 0.0),)
    with pytest.raises(ValueError):
        oracle_choice(SweepResult("x", points), tolerance=-0.1)


# -- reporting --------------------------------------------------------------------

def test_gmean_basics():
    assert gmean([2.0, 8.0]) == pytest.approx(4.0)
    assert gmean([1.0, 1.0, 1.0]) == pytest.approx(1.0)


def test_gmean_rejects_empty_and_nonpositive():
    with pytest.raises(ValueError):
        gmean([])
    with pytest.raises(ValueError):
        gmean([1.0, 0.0])


def test_ascii_table_alignment():
    out = ascii_table(("name", "value"), [("alpha", 1.0), ("b", 22.5)])
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("name")
    assert "22.500" in lines[3]


def test_ascii_bars_render():
    out = ascii_bars(["a", "bb"], [0.5, 1.0], width=10)
    lines = out.splitlines()
    assert lines[0].count("#") == 5
    assert lines[1].count("#") == 10


def test_ascii_bars_reject_mismatched_inputs():
    with pytest.raises(ValueError):
        ascii_bars(["a"], [1.0, 2.0])


def test_ascii_series_renders_every_point():
    out = ascii_series([1, 2, 3, 4], [1.0, 0.5, 0.25, 0.25], height=5)
    assert out.count("*") == 4


def test_ascii_series_rejects_empty():
    with pytest.raises(ValueError):
        ascii_series([], [])
