"""Figure 13: BAT's adaptation to the machine's bus bandwidth (convert).

Paper outcome: at half bandwidth the sweep saturates near 8 threads and
BAT picks 8; at double bandwidth the curve keeps scaling and BAT picks
32.  A static choice tuned to one machine misbehaves on the other.
"""

from __future__ import annotations

from conftest import panel, run_once

from repro.experiments import FIGURES

_GRID = (1, 2, 4, 6, 8, 10, 12, 16, 20, 24, 32)


def test_fig13_bandwidth_adaptation(benchmark, save_result):
    result = run_once(benchmark, lambda: FIGURES["fig13"].run(thread_counts=_GRID))
    save_result("fig13_bandwidth", result.format())

    half = panel(result, "0.5x")
    double = panel(result, "2x")

    # Half bandwidth: saturation around 8 threads; BAT tracks it.
    # (BAT runs a little high here because utilization scales
    # sub-linearly under DRAM contention — the limitation the paper
    # itself notes in Section 5.3 for ED.)
    assert 6 <= half.threads[0] <= 10, "paper: BAT picks 8"
    assert half.vs_best <= 1.35

    # Double bandwidth: no saturation below 32; BAT uses every core.
    assert double.threads == (32,), "paper: BAT picks 32"
    assert double.vs_best <= 1.25

    # The paper's warning about static choices: running the
    # half-bandwidth pick on the double-bandwidth machine wastes most
    # of the faster bus (its 8-thread point is far above its minimum).
    static_8_on_double = double.sweep.point(8).cycles
    assert static_8_on_double > 1.5 * double.sweep.min_cycles
