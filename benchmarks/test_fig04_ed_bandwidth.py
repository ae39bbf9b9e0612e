"""Figure 4: ED execution time and bus utilization vs threads.

Paper shape: time scales as 1/P until ~8 threads then flattens; bus
utilization ramps linearly to 100 % at the same knee and stays there.
"""

from __future__ import annotations

import pytest
from conftest import panel, run_once

from repro.experiments import FIGURES
from repro.experiments.figures import bus_saturation_threads


def test_fig04_ed_time_and_utilization(benchmark, save_result):
    result = run_once(benchmark, lambda: FIGURES["fig4"].run(scale=0.15))
    save_result("fig04_ed", result.format())

    sweep = panel(result, "ED").sweep
    curve = dict(zip(sweep.thread_counts, sweep.normalized_curve()))
    util = dict(zip(sweep.thread_counts, sweep.utilization_curve()))

    # 4a: near-ideal scaling below the knee...
    assert curve[2] == pytest.approx(0.5, abs=0.05)
    assert curve[4] == pytest.approx(0.25, abs=0.05)
    # ...then flat beyond it.
    assert curve[12] == pytest.approx(curve[32], rel=0.08)
    assert curve[32] < 0.2

    # 4b: utilization ramps linearly (paper: BU_1 ~ 14.3%)...
    assert util[1] == pytest.approx(0.143, abs=0.02)
    assert util[4] == pytest.approx(4 * util[1], rel=0.15)
    # ...saturating at the knee the paper puts at 8 threads.
    assert 7 <= bus_saturation_threads(sweep) <= 10
    assert util[32] > 0.97
