"""Figure 8: SAT on the four synchronization-limited workloads.

Paper outcome: SAT lands within 1 % of each sweep's minimum (at paper
scale); the best static counts are small (4-7 threads).  At repro scale
the single-threaded training floor costs a few extra percent, so the
bound asserted here is 35 %, with the 32-thread baseline beaten by far.
"""

from __future__ import annotations

from conftest import panel, run_once

from repro.experiments import FIGURES

_SCALES = {"PageMine": 0.25, "ISort": 0.5, "GSearch": 0.5, "EP": 0.5}
_GRID = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 24, 32)


def _run():
    return FIGURES["fig8"].run(scales=_SCALES, thread_counts=_GRID)


def test_fig08_sat_panels(benchmark, save_result):
    result = run_once(benchmark, _run)
    save_result("fig08_sat", result.format())

    for p in result.panels:
        # The knee is at a small thread count for every CS-limited app.
        assert 3 <= p.best_static_threads <= 8, p.label
        # SAT picks a similarly small team...
        assert 2 <= p.threads[0] <= 8, p.label
        # ...lands near the minimum...
        assert p.vs_best <= 1.35, p.label
        # ...and crushes the 32-thread baseline on time and power.
        assert p.baseline == p.sweep.point(32)
        assert p.norm_time < 0.7, p.label
        assert p.norm_power < 0.35, p.label

    # Paper-specific picks that should hold at repro scale:
    assert panel(result, "ISort").threads == (7,)
    assert panel(result, "EP").threads[0] in (4, 5)
