"""Integration tests: the paper's qualitative results must emerge.

These use scaled-down inputs and the coarse sweep grid, so they exercise
the whole stack (workload -> runtime -> simulator -> FDT) in seconds
while checking the *shape* claims the figures make.
"""

from __future__ import annotations

import pytest

from repro.analysis.sweep import sweep_threads
from repro.fdt.policies import FdtMode, FdtPolicy
from repro.fdt.runner import run_application
from repro.jobs import JobSpec, PolicySpec, WorkloadRef
from repro.sim.config import MachineConfig
from repro.workloads import get

CFG = MachineConfig.asplos08_baseline()
GRID = (1, 2, 4, 6, 8, 12, 16, 32)


def shared(memo, name: str, scale: float, policy: PolicySpec):
    """One run on the Table 1 machine, shared through the session memo."""
    return memo.run_one(JobSpec(workload=WorkloadRef(name, scale),
                                policy=policy, config=CFG))


@pytest.fixture
def pagemine_sweep(memo):
    return sweep_threads(WorkloadRef("PageMine", 0.2), GRID, CFG, runner=memo)


@pytest.fixture
def ed_sweep(memo):
    return sweep_threads(WorkloadRef("ED", 0.1), GRID, CFG, runner=memo)


# -- Figure 2 shape -----------------------------------------------------------

def test_pagemine_has_interior_minimum(pagemine_sweep):
    best = pagemine_sweep.best_threads
    assert 3 <= best <= 8, "CS-limited minimum should be a few threads"


def test_pagemine_32_threads_worse_than_1(pagemine_sweep):
    curve = {p.threads: p.cycles for p in pagemine_sweep.points}
    assert curve[32] > curve[1], "beyond the knee the CS dominates"


def test_pagemine_initial_speedup(pagemine_sweep):
    curve = {p.threads: p.cycles for p in pagemine_sweep.points}
    assert curve[2] < curve[1]


# -- Figure 4 shape -------------------------------------------------------------

def test_ed_time_flattens_after_saturation(ed_sweep):
    curve = {p.threads: p.cycles for p in ed_sweep.points}
    assert curve[8] < 0.2 * curve[1]
    # Flat beyond saturation (within a few percent).
    assert abs(curve[32] - curve[12]) / curve[12] < 0.1


def test_ed_bus_utilization_ramps_linearly_then_saturates(ed_sweep):
    util = {p.threads: p.bus_utilization for p in ed_sweep.points}
    assert util[1] == pytest.approx(0.143, abs=0.02), "paper: BU_1 ~ 14.3%"
    assert util[2] == pytest.approx(2 * util[1], rel=0.15)
    assert util[4] == pytest.approx(4 * util[1], rel=0.15)
    assert util[12] > 0.95
    assert util[32] > 0.95


def test_ed_single_thread_miss_interval_near_paper(memo):
    r = shared(memo, "ED", 0.1, PolicySpec.static(1)).result
    interval = r.cycles / max(1, r.bus_transfers)
    assert 200 <= interval <= 250, "paper: a miss every ~225 cycles"


# -- SAT end-to-end ---------------------------------------------------------------

@pytest.mark.parametrize("name,scale", [("PageMine", 0.25), ("ISort", 0.5),
                                        ("GSearch", 0.5), ("EP", 0.5)])
def test_sat_close_to_best_static(name, scale, memo):
    sweep = sweep_threads(WorkloadRef(name, scale), GRID, CFG, runner=memo)
    res = shared(memo, name, scale, PolicySpec.sat())
    # Within 35% of the sweep minimum (training overhead included; the
    # paper's 1% gap needs paper-scale iteration counts where training
    # is 1% of the loop rather than the 5-iteration floor).
    assert res.cycles <= sweep.min_cycles * 1.35
    # And far better than conventional 32-thread threading.
    baseline = sweep.point(32).cycles
    assert res.cycles < 0.7 * baseline


def test_sat_chooses_few_threads_for_cs_apps():
    for name in ("PageMine", "EP"):
        res = run_application(get(name).build(0.2),
                              FdtPolicy(FdtMode.SAT), CFG)
        assert 2 <= res.kernel_infos[0].threads <= 8


# -- BAT end-to-end -----------------------------------------------------------------

def test_bat_picks_saturation_point_for_ed(ed_sweep, memo):
    res = shared(memo, "ED", 0.1, PolicySpec.bat())
    info = res.kernel_infos[0]
    assert info.threads in (7, 8), "paper: BAT predicts 7 (best 8)"
    assert res.cycles <= ed_sweep.min_cycles * 1.30
    assert res.power < 9


def test_bat_saves_most_of_the_power_for_ed(ed_sweep, memo):
    res = shared(memo, "ED", 0.1, PolicySpec.bat())
    baseline_power = ed_sweep.point(32).power
    saving = 1 - res.power / baseline_power
    assert saving > 0.6, "paper: 78% power saving for ED"


def test_bat_chooses_17ish_for_convert():
    res = run_application(get("convert").build(1.0),
                          FdtPolicy(FdtMode.BAT), CFG)
    assert res.kernel_infos[0].threads in (16, 17, 18), "paper: 17"


def test_bat_adapts_to_bus_bandwidth():
    half = CFG.with_bandwidth(0.5)
    double = CFG.with_bandwidth(2.0)
    t_half = run_application(get("convert").build(1.0),
                             FdtPolicy(FdtMode.BAT),
                             half).kernel_infos[0].threads
    t_double = run_application(get("convert").build(1.0),
                               FdtPolicy(FdtMode.BAT),
                               double).kernel_infos[0].threads
    assert t_half <= 10, "paper: half bandwidth saturates at 8 threads"
    assert t_double == 32, "paper: double bandwidth keeps scaling"


# -- combined policy -----------------------------------------------------------------

def test_combined_keeps_scalable_apps_at_full_width():
    for name in ("BT", "BScholes", "SConv"):
        res = run_application(get(name).build(0.25),
                              FdtPolicy(FdtMode.COMBINED), CFG)
        assert all(t == 32 for t in res.threads_used), (
            f"{name} should keep all cores")


def test_combined_uses_different_counts_for_mtwister_kernels():
    res = run_application(get("MTwister").build(1.0),
                          FdtPolicy(FdtMode.COMBINED), CFG)
    t_gen, t_bm = res.threads_used
    assert t_gen == 32, "paper: generation kernel scales to 32"
    assert 10 <= t_bm <= 14, "paper: Box-Muller saturates at 12"
    assert 16 <= res.mean_threads <= 28, "paper: average ~21 threads"


def test_combined_beats_baseline_on_time_and_power_for_cs_apps(memo):
    for name in ("PageMine", "ISort"):
        base = shared(memo, name, 0.2, PolicySpec.static(32))
        fdt = shared(memo, name, 0.2, PolicySpec.fdt())
        assert fdt.cycles < 0.75 * base.cycles
        assert fdt.power < 0.4 * base.power
