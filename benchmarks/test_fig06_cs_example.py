"""Figure 6: the worked critical-section example (Eq. 1).

The paper's numbers are exact: 10, 8, 10, 17 units at P = 1, 2, 4, 8.
"""

from __future__ import annotations

from conftest import run_once

from repro.experiments import FIGURES
from repro.experiments.figures import fig6_example


def test_fig06_worked_example(benchmark, save_result):
    result = run_once(benchmark, FIGURES["fig6"].run)
    save_result("fig06_cs_example", result.format())
    model, times = fig6_example()
    assert times == (10.0, 8.0, 10.0, 17.0)
    assert model.optimal_threads() == 2.0
