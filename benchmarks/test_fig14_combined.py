"""Figure 14: SAT+BAT on all twelve workloads vs the 32-thread baseline.

Paper outcome (normalized to 32 threads): big time and power cuts for
the synchronization-limited group, big power cuts at flat time for the
bandwidth-limited group, no change for the scalable group; geometric
means -17 % time and -59 % power.
"""

from __future__ import annotations

from conftest import run_once

from repro.experiments.fig14_combined import run_fig14

_SCALES = {"PageMine": 0.5, "ISort": 1.0, "GSearch": 1.0, "EP": 1.0,
           "ED": 0.4, "convert": 1.0, "Transpose": 0.5, "MTwister": 1.0,
           "BT": 1.0, "MG": 1.0, "BScholes": 1.0, "SConv": 1.0}


def test_fig14_combined_all_workloads(benchmark, save_result):
    result = run_once(benchmark, lambda: run_fig14(scales=_SCALES))
    save_result("fig14_combined", result.format())

    # Synchronization-limited: both time and power fall hard.
    for name in ("PageMine", "ISort", "GSearch", "EP"):
        row = result.panel(name)
        assert row.norm_time < 0.7, name
        assert row.norm_power < 0.35, name

    # Bandwidth-limited: power falls hard at roughly flat time (the
    # residual few percent is the serial-training floor at repro scale).
    for name in ("ED", "convert", "Transpose"):
        row = result.panel(name)
        assert row.norm_time < 1.30, name
        assert row.norm_power < 0.65, name
    assert result.panel("MTwister").norm_power < 0.85  # paper: -31% vs oracle

    # Scalable: FDT keeps all 32 threads and changes little.
    for name in ("BT", "MG", "BScholes", "SConv"):
        row = result.panel(name)
        assert row.threads[-1] == 32, name
        assert row.norm_time < 1.30, name

    # Geometric means in the paper's direction and ballpark
    # (paper: 0.83 time, 0.41 power).
    assert result.gmean_time < 0.95
    assert result.gmean_power < 0.55
