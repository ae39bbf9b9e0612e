"""Smoke test for every entry of the figure registry.

The benchmark suite runs the figures at paper-representative scales;
here each runs at a tiny scale and grid so the test suite exercises the
registry's plumbing (panel specs, the shared runner, formatting) quickly.
"""

from __future__ import annotations

import pytest

from repro.experiments import FIGURES, figures
from repro.jobs import JobRunner

TINY_GRID = (1, 4, 8)


def check_tables(_):
    assert any("ring" in str(row) for row in figures.table1_rows())
    assert len(figures.table2_rows()) == 12


def check_fig2(r):
    curve = r.panel("PageMine").sweep.normalized_curve()
    assert len(curve) == 3
    assert curve[0] == pytest.approx(1.0)
    assert "Figure 2" in r.format()


def check_fig4(r):
    utilization = r.panel("ED").sweep.utilization_curve()
    assert len(utilization) == 3
    assert utilization[0] < utilization[-1]
    assert "Figure 4" in r.format()


def check_fig6(_):
    model, times = figures.fig6_example(t_nocs=9.0, t_cs=1.0)
    assert times[0] == pytest.approx(10.0)
    assert model.optimal_threads() == pytest.approx(3.0)


def check_fig8(r):
    panel = r.panel("EP")
    assert panel.threads[0] >= 1
    assert panel.adaptive.cycles / panel.sweep.point(1).cycles > 0


def check_fig9(r):
    assert len(r.panels) == 1
    assert r.panel("2.0 KB").best_static_threads >= 1
    assert "page size" in r.format()


def check_fig11(_):
    model, _, _ = figures.fig11_example(bu1=0.5)
    assert model.saturation_threads() == pytest.approx(2.0)


def check_fig12(r):
    panel = r.panel("ED")
    assert panel.threads[0] >= 1
    assert 0 <= panel.power_saving <= 1
    # The baseline is the grid's largest count, and the header says so.
    assert panel.baseline.threads == 8
    assert "power saved vs 8T" in r.format()


def check_fig13(r):
    assert r.panel("2x").threads[0] >= 1
    with pytest.raises(KeyError):
        r.panel("0.5x")


def check_fig14(r):
    panel = r.panel("EP")
    assert panel.norm_time < 1.0
    assert r.gmean_power == pytest.approx(panel.norm_power)


def check_fig15(r):
    panel = r.panel("EP")
    assert figures.oracle_norm(panel)[0] in TINY_GRID
    assert panel.norm_power <= 1.0


def check_fig16(_):
    for _, model in figures.FIG16_CASES:
        assert figures.eq7_is_optimal(model, 16)
        assert len(model.curve(16)) == 16


def check_smt(r):
    assert r.panel("EP").threads[0] <= 8
    assert "SMT-2" in r.format()


def check_crossover(r):
    panel = r.panel("0")
    assert figures.binding(panel) == "SAT"
    assert not figures.crossed(r)


#: name -> (the knobs that make the entry tiny, its figure-specific checks)
CASES = {
    "table1": ({}, check_tables),
    "table2": ({}, check_tables),
    "fig2": (dict(scale=0.1, thread_counts=TINY_GRID), check_fig2),
    "fig4": (dict(scale=0.05, thread_counts=TINY_GRID), check_fig4),
    "fig6": ({}, check_fig6),
    "fig8": (dict(scale=0.1, thread_counts=TINY_GRID, workloads=("EP",)),
             check_fig8),
    "fig9": (dict(page_sizes=(2048,), scale=0.1, thread_counts=TINY_GRID),
             check_fig9),
    "fig11": ({}, check_fig11),
    "fig12": (dict(scale=0.05, thread_counts=TINY_GRID, workloads=("ED",)),
              check_fig12),
    "fig13": (dict(factors=(2.0,), scale=0.2, thread_counts=TINY_GRID),
              check_fig13),
    "fig14": (dict(scale=0.1, workloads=("EP",)), check_fig14),
    "fig15": (dict(scale=0.1, workloads=("EP",), thread_counts=TINY_GRID),
              check_fig15),
    "fig16": ({}, check_fig16),
    "smt": (dict(scale=0.1, workloads=("EP",)), check_smt),
    "crossover": (dict(bus_lines=(0,), iterations=48,
                       thread_counts=TINY_GRID), check_crossover),
}


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure(name):
    knobs, check = CASES[name]
    runner = JobRunner()
    result = FIGURES[name].run(runner, **knobs)
    assert result.format().startswith(result.title)
    assert "{" not in result.title
    assert bool(runner.manifest.entries) == bool(result.panels)
    with pytest.raises(KeyError):
        result.panel("nope")
    check(result)
