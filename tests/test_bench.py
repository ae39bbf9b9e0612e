"""The fixed scenario suite: roster, selection, determinism."""

from __future__ import annotations

import pytest

from repro.bench import scenarios
from repro.errors import ReproError


def test_suite_has_the_four_fixed_scenarios():
    names = [s.name for s in scenarios.SCENARIOS]
    assert names == ["compute-bound", "miss-bound", "cs-heavy",
                     "fdt-train-run"]


def test_select_none_returns_full_suite():
    assert scenarios.select(None) == scenarios.SCENARIOS
    assert scenarios.select([]) == scenarios.SCENARIOS


def test_select_subset_preserves_request_order():
    picked = scenarios.select(["cs-heavy", "compute-bound"])
    assert [s.name for s in picked] == ["cs-heavy", "compute-bound"]


def test_select_unknown_scenario_raises():
    with pytest.raises(ReproError, match="no-such-scenario"):
        scenarios.select(["no-such-scenario"])


def test_scenarios_are_deterministic():
    """Same scenario, same size -> identical simulated work, twice."""
    (scn,) = scenarios.select(["compute-bound"])
    first = scn.run(quick=True)
    second = scn.run(quick=True)
    assert first == second
    assert first.sim_cycles > 0 and first.sim_ops > 0
