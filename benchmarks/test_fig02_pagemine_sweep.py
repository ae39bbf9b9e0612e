"""Figure 2: PageMine normalized execution time vs 1-32 threads.

Paper shape: time falls to a minimum around 4-6 threads and rises
substantially beyond, ending worse than single-threaded at 32.
"""

from __future__ import annotations

from conftest import panel, run_once

from repro.experiments import FIGURES


def test_fig02_pagemine_sweep(benchmark, save_result):
    result = run_once(benchmark, lambda: FIGURES["fig2"].run(scale=0.25))
    save_result("fig02_pagemine", result.format())

    sweep = panel(result, "PageMine").sweep
    curve = dict(zip(sweep.thread_counts, sweep.normalized_curve()))
    # The minimum sits at a small thread count (paper: ~4).
    assert 3 <= sweep.best_threads <= 6
    # Initial scaling helps...
    assert curve[2] < 0.75
    # ...the curve turns upward past the knee...
    assert curve[16] > curve[8] > curve[sweep.best_threads]
    # ...and 32 threads are worse than one (critical section dominates).
    assert curve[32] > 1.0
