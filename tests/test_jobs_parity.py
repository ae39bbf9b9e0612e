"""Executor determinism: serial, pooled, and cached runs are identical.

The tentpole correctness bar: results submitted through the jobs
subsystem — on any backend, cached or fresh — must be *bit-identical*
to the in-process runs the experiments performed before the subsystem
existed (the simulator is deterministic, so the cache is sound).
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.analysis.sweep import point_from_result, sweep_threads
from repro.errors import JobError
from repro.experiments import FIGURES, Panel, run_panels
from repro.fdt.policies import FdtMode, FdtPolicy, StaticPolicy
from repro.fdt.runner import run_application
from repro.jobs import JobRunner, JobSpec, PolicySpec, ResultCache, WorkloadRef
from repro.jobs import api as jobs_api
from repro.jobs import backoff
from repro.jobs import executor as executor_mod
from repro.sim.config import MachineConfig
from repro.workloads import get

WORKLOADS = ("EP", "PageMine")
SCALE = 0.1
GRID = (1, 2, 4)

#: Tiny forms of the figures whose panels are jobs (beside fig14, which
#: ``benchmarks/perf`` pins at full scale).
FIGURE_KNOBS = {
    "fig2": dict(scale=SCALE, thread_counts=GRID),
    "fig4": dict(scale=0.05, thread_counts=GRID),
    "fig8": dict(scale=SCALE, thread_counts=GRID, workloads=WORKLOADS),
    "fig9": dict(page_sizes=(2048,), scale=SCALE, thread_counts=GRID),
    "fig13": dict(factors=(2.0,), scale=0.2, thread_counts=GRID),
    "smt": dict(scale=SCALE, workloads=("EP",)),
}

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="crash-injection tests patch module state into forked workers")


def specs_for(name: str, config: MachineConfig) -> list[JobSpec]:
    ref = WorkloadRef(name=name, scale=SCALE)
    specs = [JobSpec(workload=ref, policy=PolicySpec.static(t),
                     config=config) for t in GRID]
    specs.append(JobSpec(workload=ref, policy=PolicySpec.fdt(),
                         config=config))
    return specs


def direct_results(name: str, config: MachineConfig) -> list:
    """The pre-subsystem ground truth: plain in-process runs."""
    spec = get(name)
    results = [run_application(spec.build(SCALE), StaticPolicy(t), config)
               for t in GRID]
    results.append(run_application(spec.build(SCALE),
                                   FdtPolicy(FdtMode.COMBINED), config))
    return results


@pytest.fixture(scope="module")
def ground_truth():
    config = MachineConfig.asplos08_baseline()
    return config, {name: direct_results(name, config)
                    for name in WORKLOADS}


def test_serial_backend_matches_direct_runs(ground_truth):
    config, expected = ground_truth
    runner = JobRunner()
    for name in WORKLOADS:
        assert runner.run(specs_for(name, config)) == expected[name]


def test_process_pool_backend_matches_direct_runs(ground_truth):
    config, expected = ground_truth
    runner = JobRunner(jobs=2)
    for name in WORKLOADS:
        assert runner.run(specs_for(name, config)) == expected[name]


def test_cache_hits_match_direct_runs(tmp_path, ground_truth):
    config, expected = ground_truth
    cold = JobRunner(cache=ResultCache(tmp_path))
    for name in WORKLOADS:
        assert cold.run(specs_for(name, config)) == expected[name]
    assert cold.manifest.counts["computed"] == 8

    warm = JobRunner(cache=ResultCache(tmp_path))
    for name in WORKLOADS:
        assert warm.run(specs_for(name, config)) == expected[name]
    assert warm.manifest.counts == {
        "total": 8, "hits": 8, "computed": 0, "failed": 0,
        "timeouts": 0}


def test_sweep_via_jobs_matches_legacy_factory_sweep(ground_truth):
    config, _ = ground_truth
    for name in WORKLOADS:
        spec = get(name)
        legacy = sweep_threads(lambda: spec.build(SCALE), GRID, config)
        via_jobs = sweep_threads(WorkloadRef(name=name, scale=SCALE),
                                 GRID, config)
        assert via_jobs == legacy


def test_memo_dedupes_repeated_specs(ground_truth):
    config, expected = ground_truth
    runner = JobRunner()
    spec = specs_for("EP", config)[0]
    first = runner.run_one(spec)
    second = runner.run_one(spec)
    assert first == second == expected["EP"][0]
    statuses = [e.status for e in runner.manifest.entries]
    assert statuses == ["computed", "hit"]


def test_corrupt_cache_entry_recomputes_only_that_job(tmp_path, ground_truth):
    config, expected = ground_truth
    cache = ResultCache(tmp_path)
    specs = specs_for("EP", config)
    JobRunner(cache=cache).run(specs)
    cache.path_for(specs[1].key()).write_text("{corrupt")

    warm = JobRunner(cache=ResultCache(tmp_path))
    assert warm.run(specs) == expected["EP"]
    assert warm.manifest.counts == {
        "total": 4, "hits": 3, "computed": 1, "failed": 0,
        "timeouts": 0}


@pytest.mark.parametrize("name", sorted(FIGURE_KNOBS))
def test_figure_panels_via_jobs_match_in_process_panels(name):
    """Sweep points, adaptive run and baseline of every panel are
    bit-identical whether they ran as jobs or as plain in-process runs
    (the same three steps spelled with ``run_application``)."""
    specs = FIGURES[name].specs(**FIGURE_KNOBS[name])
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
    runner = JobRunner()
    assert run_panels(specs, runner) == tuple(in_process)
    assert runner.manifest.counts["computed"] > 0


def assert_warm_cache_runs_zero_simulations(name, cache_dir):
    cold = JobRunner(cache=ResultCache(cache_dir))
    first = FIGURES[name].run(cold, **FIGURE_KNOBS[name])
    assert cold.manifest.counts["computed"] == cold.manifest.counts["total"]

    warm = JobRunner(cache=ResultCache(cache_dir))
    second = FIGURES[name].run(warm, **FIGURE_KNOBS[name])
    assert second == first
    counts = warm.manifest.counts
    assert counts["computed"] == 0 and counts["failed"] == 0
    assert counts["hits"] == counts["total"] == cold.manifest.counts["total"]


def test_warm_cache_fig8_runs_zero_simulations(tmp_path):
    """Acceptance bar: a warm-cache figure is 100% cache hits."""
    assert_warm_cache_runs_zero_simulations("fig8", tmp_path)


@pytest.mark.parametrize("name", sorted(set(FIGURE_KNOBS) - {"fig8"}))
def test_warm_cache_figure_runs_zero_simulations(name, tmp_path):
    assert_warm_cache_runs_zero_simulations(name, tmp_path)


# -- failure handling ---------------------------------------------------------

def test_unknown_workload_fails_with_job_error():
    spec = JobSpec(workload=WorkloadRef(name="NoSuchWorkload"),
                   policy=PolicySpec.static(1),
                   config=MachineConfig.small())
    runner = JobRunner()
    with pytest.raises(JobError, match="NoSuchWorkload"):
        runner.run_one(spec)
    assert runner.manifest.counts["failed"] == 1


def test_pool_spawn_failure_falls_back_to_serial(monkeypatch, ground_truth):
    config, expected = ground_truth

    def broken_pool(*args, **kwargs):
        raise OSError("no processes for you")

    monkeypatch.setattr(executor_mod.futures, "ProcessPoolExecutor",
                        broken_pool)
    runner = JobRunner(jobs=4)
    assert runner.run(specs_for("EP", config)) == expected["EP"]
    assert {e.backend for e in runner.manifest.entries} == {"serial-fallback"}


@fork_only
def test_pool_retries_after_worker_crash(tmp_path, monkeypatch, ground_truth):
    config, expected = ground_truth
    flag = tmp_path / "crashed-once"
    real = executor_mod._execute_payload

    def crash_once(spec_dict, trace_dir=None):
        if not flag.exists():
            flag.write_text("x")
            os._exit(13)  # hard worker death -> BrokenProcessPool
        return real(spec_dict, trace_dir)

    monkeypatch.setattr(executor_mod, "_execute_payload", crash_once)
    runner = JobRunner(jobs=2)  # default arguments recover from one crash
    assert runner.run(specs_for("EP", config)) == expected["EP"]
    assert all(e.status in ("computed", "hit")
               for e in runner.manifest.entries)


@fork_only
def test_pool_gives_up_after_bounded_retries(monkeypatch, tmp_path,
                                             fast_backoff):
    def always_crash(spec_dict, trace_dir=None):
        with open(tmp_path / "submissions", "a") as log:
            log.write(f"{spec_dict['policy']['threads']}\n")
        os._exit(13)

    monkeypatch.setattr(executor_mod, "_execute_payload", always_crash)
    rounds = []
    real_execute = jobs_api.execute_jobs
    monkeypatch.setattr(jobs_api, "execute_jobs", lambda specs, **kw: (
        rounds.append(len(specs)), real_execute(specs, **kw))[1])
    runner = JobRunner(jobs=2)
    config = MachineConfig.small()
    specs = [JobSpec(workload=WorkloadRef(name="EP", scale=0.05),
                     policy=PolicySpec.static(t), config=config)
             for t in (1, 2)]
    with pytest.raises(JobError, match="crashed"):
        runner.run(specs)
    assert runner.manifest.counts["failed"] == 2
    # One retry loop: RETRY_BUDGET + 1 pool rounds, and no job is
    # started more often than that.
    assert rounds == [2] * (backoff.RETRY_BUDGET + 1) == [2, 2, 2]
    started = (tmp_path / "submissions").read_text().split()
    assert 1 <= max(started.count("1"), started.count("2")) \
        <= backoff.RETRY_BUDGET + 1


@fork_only
def test_pool_timeout_reports_timed_out_jobs(monkeypatch):
    import time

    def too_slow(spec_dict, trace_dir=None):
        time.sleep(5.0)
        return {}

    monkeypatch.setattr(executor_mod, "_execute_payload", too_slow)
    runner = JobRunner(jobs=2, timeout=0.2)
    config = MachineConfig.small()
    specs = [JobSpec(workload=WorkloadRef(name="EP", scale=0.05),
                     policy=PolicySpec.static(t), config=config)
             for t in (1, 2)]
    with pytest.raises(JobError, match="within"):
        runner.run(specs)
    assert {e.status for e in runner.manifest.entries} == {"timeout"}
