"""Figure 8: SAT on the four synchronization-limited workloads.

Paper outcome: SAT lands within 1 % of each sweep's minimum (at paper
scale); the best static counts are small (4-7 threads).  At repro scale
the single-threaded training floor costs a few extra percent, so the
bound asserted here is 35 %, with the 32-thread baseline beaten by far.
"""

from __future__ import annotations

from conftest import run_once

from repro.experiments import FIGURES

_SCALES = {"PageMine": 0.25, "ISort": 0.5, "GSearch": 0.5, "EP": 0.5}
_GRID = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 24, 32)


def _run():
    return FIGURES["fig8"].run(scales=_SCALES, thread_counts=_GRID)


def test_fig08_sat_panels(benchmark, save_result):
    result = run_once(benchmark, _run)
    save_result("fig08_sat", result.format())

    for panel in result.panels:
        # The knee is at a small thread count for every CS-limited app.
        assert 3 <= panel.best_static_threads <= 8, panel.label
        # SAT picks a similarly small team...
        assert 2 <= panel.threads[0] <= 8, panel.label
        # ...lands near the minimum...
        assert panel.vs_best <= 1.35, panel.label
        # ...and crushes the 32-thread baseline on time and power.
        assert panel.baseline == panel.sweep.point(32)
        assert panel.norm_time < 0.7, panel.label
        assert panel.norm_power < 0.35, panel.label

    # Paper-specific picks that should hold at repro scale:
    assert result.panel("ISort").threads == (7,)
    assert result.panel("EP").threads[0] in (4, 5)
