"""Figures 9/10: SAT's adaptation to the input set (PageMine page size).

Paper shape: the best thread count grows with the page size (roughly as
its square root), and SAT tracks it across sizes, so no static choice
works for all inputs.
"""

from __future__ import annotations

from conftest import panel, run_once

from repro.experiments import FIGURES
from repro.experiments.figures import page_label

_GRID = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 24, 32)
_SIZES = (1024, 2560, 5280, 10240, 25600)


def test_fig09_best_threads_vs_pagesize(benchmark, save_result):
    result = run_once(
        benchmark,
        lambda: FIGURES["fig9"].run(page_sizes=_SIZES, scale=0.4,
                                    thread_counts=_GRID))
    save_result("fig09_fig10_pagesize", result.format())

    by_size = {size: panel(result, page_label(size)) for size in _SIZES}
    # Bigger pages push the knee to more threads (paper Figure 9)...
    assert by_size[25600].best_static_threads > by_size[1024].best_static_threads
    assert by_size[10240].best_static_threads >= by_size[2560].best_static_threads
    # ...and SAT's pick grows with it (Figure 10's two sizes).
    assert by_size[10240].threads[0] > by_size[2560].threads[0]
    # SAT stays close to each size's own minimum.
    for p in result.panels:
        assert p.vs_best <= 1.40, p.label
