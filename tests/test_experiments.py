"""Smoke test for every entry of the figure registry.

The benchmark suite runs the figures at paper-representative scales;
here each runs at a tiny scale and grid so the test suite exercises the
registry's plumbing (panel specs, the shared runner, formatting) quickly.
"""

from __future__ import annotations

import pytest

from repro.analysis.sweep import point_from_result, sweep_threads
from repro.experiments import FIGURES, Panel, figures, run_panels
from repro.fdt.runner import run_application
from repro.jobs import JobRunner, ResultCache, WorkloadRef
from repro.sim.config import MachineConfig
from repro.workloads import get

TINY_GRID = (1, 4, 8)


def panels(result):
    """A figure's panels by label."""
    return {p.label: p for p in result.panels}


def check_tables(_):
    assert any("ring" in str(row) for row in figures.table1_rows())
    assert len(figures.table2_rows()) == 12


def check_fig2(r):
    curve = panels(r)["PageMine"].sweep.normalized_curve()
    assert len(curve) == 3
    assert curve[0] == pytest.approx(1.0)
    assert "Figure 2" in r.format()


def check_fig4(r):
    utilization = panels(r)["ED"].sweep.utilization_curve()
    assert len(utilization) == 3
    assert utilization[0] < utilization[-1]
    assert "Figure 4" in r.format()


def check_fig6(_):
    model, times = figures.fig6_example(t_nocs=9.0, t_cs=1.0)
    assert times[0] == pytest.approx(10.0)
    assert model.optimal_threads() == pytest.approx(3.0)


def check_fig8(r):
    panel = panels(r)["EP"]
    assert panel.threads[0] >= 1
    assert panel.adaptive.cycles / panel.sweep.point(1).cycles > 0


def check_fig9(r):
    assert len(r.panels) == 1
    assert panels(r)["2.0 KB"].best_static_threads >= 1
    assert "page size" in r.format()


def check_fig11(_):
    model, _, _ = figures.fig11_example(bu1=0.5)
    assert model.saturation_threads() == pytest.approx(2.0)


def check_fig12(r):
    panel = panels(r)["ED"]
    assert panel.threads[0] >= 1
    assert 0 <= panel.power_saving <= 1
    # The baseline is the grid's largest count, and the header says so.
    assert panel.baseline.threads == 8
    assert "power saved vs 8T" in r.format()


def check_fig13(r):
    assert panels(r)["2x"].threads[0] >= 1
    assert "0.5x" not in panels(r)


def check_fig14(r):
    panel = panels(r)["EP"]
    assert panel.norm_time < 1.0
    assert r.gmean_power == pytest.approx(panel.norm_power)


def check_fig15(r):
    panel = panels(r)["EP"]
    assert figures.oracle_norm(panel)[0] in TINY_GRID
    assert panel.norm_power <= 1.0


def check_fig16(_):
    for _, model in figures.FIG16_CASES:
        assert figures.eq7_is_optimal(model, 16)
        assert len(model.curve(16)) == 16


def check_smt(r):
    assert panels(r)["EP"].threads[0] <= 8
    assert "SMT-2" in r.format()


def check_crossover(r):
    panel = panels(r)["0"]
    assert figures.binding(panel) == "SAT"
    assert not {"SAT", "BAT"} <= {figures.binding(p) for p in r.panels}


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
    check(result)


# -- the same panels as jobs, in process and from a warm cache -----------------

#: Tiny forms of the figures whose panels are jobs (beside fig14, which
#: ``benchmarks/perf`` pins at full scale).
JOB_KNOBS = {
    "fig2": dict(scale=0.1, thread_counts=(1, 2, 4)),
    "fig4": dict(scale=0.05, thread_counts=(1, 2, 4)),
    "fig8": dict(scale=0.1, thread_counts=(1, 2, 4),
                 workloads=("EP", "PageMine")),
    "fig9": dict(page_sizes=(2048,), scale=0.1, thread_counts=(1, 2, 4)),
    "fig13": dict(factors=(2.0,), scale=0.2, thread_counts=(1, 2, 4)),
    "smt": dict(scale=0.1, workloads=("EP",)),
}


@pytest.fixture(scope="module", params=sorted(JOB_KNOBS))
def cold_panels(request, tmp_path_factory):
    """A figure's panel specs, run once as jobs into a fresh cache:
    ``(specs, panels, cache_dir, manifest counts)``.  A runner
    binds its run registry under ``REPRO_CACHE_DIR`` when built, so it
    is built under this fixture's own directory."""
    name = request.param
    specs = FIGURES[name].specs(**JOB_KNOBS[name])
    cache_dir = tmp_path_factory.mktemp(f"panels-{name}")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(cache_dir / "registry"))
        cold = JobRunner(cache=ResultCache(cache_dir / "results"))
    result = run_panels(specs, cold)
    return specs, result, cache_dir / "results", cold.manifest.counts


def test_figure_panels_via_jobs_match_in_process_panels(cold_panels):
    """Sweep points, adaptive run and baseline of every panel are
    bit-identical whether they ran as jobs into a cold cache or as plain
    in-process runs (the same three steps spelled with
    ``run_application``)."""
    specs, cold, _, counts = cold_panels
    in_process = []
    for spec in specs:
        config = spec.config or MachineConfig.asplos08_baseline()
        build = spec.workload.build

        def run(policy):
            return run_application(build(), policy.build(), config)

        sweep = baseline = adaptive = None
        if spec.grid is not None:
            sweep = sweep_threads(build, spec.grid, config)
            baseline = sweep.points[-1]
        elif spec.baseline is not None:
            res = run(spec.baseline)
            baseline = point_from_result(res.threads_used[0], res)
        if spec.policy is not None:
            adaptive = run(spec.policy)
        in_process.append(Panel(spec.label, sweep, adaptive, baseline))
    assert cold == tuple(in_process)
    assert counts["computed"] == counts["total"] > 0


def test_warm_cache_figure_runs_zero_simulations(cold_panels):
    """A warm-cache figure is 100% cache hits, with the cold panels."""
    specs, cold, cache_dir, cold_counts = cold_panels
    warm = JobRunner(cache=ResultCache(cache_dir))
    assert run_panels(specs, warm) == cold
    counts = warm.manifest.counts
    assert counts["computed"] == 0 and counts["failed"] == 0
    assert counts["hits"] == counts["total"] == cold_counts["total"]


def test_sweep_via_jobs_matches_legacy_factory_sweep():
    config = MachineConfig.asplos08_baseline()
    for name in ("EP", "PageMine"):
        legacy = sweep_threads(lambda: get(name).build(0.1), (1, 2, 4),
                               config)
        via_jobs = sweep_threads(WorkloadRef(name=name, scale=0.1),
                                 (1, 2, 4), config)
        assert via_jobs == legacy
