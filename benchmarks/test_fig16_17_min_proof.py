"""Figures 16/17 (appendix): Eq. 7's min(P_CS, P_BW) is optimal.

Both orderings are evaluated on the combined model and the Eq. 7 choice
is checked against a brute-force argmin.
"""

from __future__ import annotations

from conftest import run_once

from repro.experiments import FIGURES
from repro.experiments.figures import FIG16_CASES, eq7_is_optimal


def test_fig16_17_min_optimality(benchmark, save_result):
    result = run_once(benchmark, FIGURES["fig16"].run)
    save_result("fig16_17_min_proof", result.format())

    (_, case16), (_, case17) = FIG16_CASES
    # Figure 16: P_CS < P_BW -> the CS bound sets the optimum.
    assert case16.eq7_choice(32) == 5
    assert eq7_is_optimal(case16)
    # Figure 17: P_BW < P_CS -> the bandwidth bound sets the optimum.
    assert case17.eq7_choice(32) == 5
    assert eq7_is_optimal(case17)
    # Past the chosen point both curves rise (linearly in the CS term).
    for case in (case16, case17):
        curve = case.curve(32)
        assert curve[10] > curve[case.eq7_choice(32) - 1]
        assert curve[31] > curve[10]
