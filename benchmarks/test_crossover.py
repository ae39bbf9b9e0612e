"""Crossover study: Eq. 7's min-rule validated inside the simulator.

Not a paper figure — it closes the loop between the appendix's model
argument (Figures 16/17) and the simulated machine: as a synthetic
kernel's bandwidth demand grows, the binding limiter flips from SAT's
bound to BAT's, and FDT tracks the simulated optimum on both sides.
"""

from __future__ import annotations

from conftest import run_once

from repro.experiments import FIGURES
from repro.experiments.figures import binding, bounds


def test_crossover_binding_limiter_flips(benchmark, save_result):
    result = run_once(
        benchmark,
        lambda: FIGURES["crossover"].run(
            iterations=96, thread_counts=(1, 2, 4, 6, 8, 10, 12, 16, 32)))
    save_result("crossover", result.format())

    assert {"SAT", "BAT"} <= {binding(p) for p in result.panels}, \
        "the binding constraint must flip SAT -> BAT"
    # On the pure-CS side, FDT picks the SAT bound; on the heavy-BW
    # side, the BAT bound.
    first, last = result.panels[0], result.panels[-1]
    assert binding(first) == "SAT"
    assert binding(last) == "BAT"
    assert first.threads == (min(bounds(first)),)
    assert last.threads == (min(bounds(last)),)
    # FDT stays near the simulated optimum at every point.
    for p in result.panels:
        assert p.vs_best <= 1.30, f"bus_lines={p.label}"
