"""Figure 11: the worked bandwidth example (Eq. 4-6).

Paper numbers: utilization 25/50/100/100 %, times 1, 1/2, 1/4, 1/4 at
P = 1, 2, 4, 8 — P = 4 and P = 8 take the same time.
"""

from __future__ import annotations

from conftest import run_once

from repro.experiments import FIGURES
from repro.experiments.figures import fig11_example


def test_fig11_worked_example(benchmark, save_result):
    result = run_once(benchmark, FIGURES["fig11"].run)
    save_result("fig11_bw_example", result.format())
    model, times, utilizations = fig11_example()
    assert times == (1.0, 0.5, 0.25, 0.25)
    assert utilizations == (0.25, 0.5, 1.0, 1.0)
    assert model.saturation_threads() == 4.0
