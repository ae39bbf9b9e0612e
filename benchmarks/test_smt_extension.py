"""Section 9 extension benchmark: FDT on an SMT-2 machine.

Not a paper figure — it validates the paper's §9 claim that the
conclusions carry over to SMT-enabled cores, and quantifies the one
interaction that does not (BAT's round-up on mixed-speed slots).
"""

from __future__ import annotations

from conftest import run_once

from repro.experiments import FIGURES


def test_smt_extension(benchmark, save_result):
    result = run_once(benchmark, lambda: FIGURES["smt"].run(scale=0.25))
    save_result("smt_extension", result.format())

    # The CS-limited kernel is still curtailed to a handful of threads
    # and saves nearly everything vs 64-thread conventional threading.
    pagemine = result.panel("PageMine")
    assert pagemine.threads[0] <= 8
    assert pagemine.norm_time < 0.4
    assert pagemine.norm_power < 0.2

    # The BW-limited kernel still saturates at the same thread count.
    ed = result.panel("ED")
    assert ed.threads[0] in (7, 8)
    assert ed.norm_power < 0.4

    # The compute-bound kernel documents the known SMT interaction:
    # an intermediate pick on heterogeneous-speed slots is imbalanced.
    bscholes = result.panel("BScholes")
    assert 32 < bscholes.threads[0] < 64
    assert bscholes.norm_time > 1.0  # the reported pathology
