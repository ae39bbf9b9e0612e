"""Chaos-harness tests: recovery paths under injected faults.

The determinism suite locks in the contract the nightly soak relies
on — same plan + same seed reproduces identical firings, cache state,
and manifest counts — and the recovery tests drive each hardened path
(backoff retry, quarantine-and-recompute, tolerated cache writes, the
serve retry loop) through the real JobRunner / ServerThread code.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import FaultError, JobError
from repro.faults import FaultPlan, FaultRule, injected
from repro.faults.chaos import (
    BatchSubmit,
    ServeSubmit,
    example_plan,
    run_chaos,
)
from repro.jobs import JobRunner, JobSpec, ResultCache
from repro.jobs import backoff
from repro.sim.config import MachineConfig
from tests.programs import synthetic_spec as _spec

EXAMPLES = Path(__file__).parent.parent / "examples"


def _serve_spec(iterations: int = 8) -> JobSpec:
    # The serve request schema rebuilds machines from the Table 1
    # baseline, so serve-mode specs must use it (see schema.request_body).
    return _spec(iterations, config=MachineConfig.asplos08_baseline())


# -- hardened recovery paths ------------------------------------------

def test_runner_retries_transient_crash_with_backoff(tmp_path,
                                                     fast_backoff):
    plan = FaultPlan(rules=(
        FaultRule(site="executor.job", kind="crash", max_fires=1),))
    runner = JobRunner(cache=ResultCache(tmp_path / "c"))
    with injected(plan) as injector:
        (resolution,) = runner.resolve([_spec()])
        assert injector.firing_count() == 1
    assert resolution.status == "computed"
    assert resolution.result is not None


def test_runner_gives_up_after_the_retry_budget(tmp_path, fast_backoff,
                                                 monkeypatch):
    monkeypatch.setattr(backoff, "RETRY_BUDGET", 2)
    plan = FaultPlan(rules=(
        FaultRule(site="executor.job", kind="crash"),))  # every attempt
    runner = JobRunner(cache=ResultCache(tmp_path / "c"))
    with injected(plan) as injector:
        (resolution,) = runner.resolve([_spec()])
        # Initial attempt plus the whole retry budget, then surrender.
        assert injector.firing_count() == 3
    assert resolution.status == "failed"
    assert "injected crash" in resolution.error


def test_runner_run_raises_but_never_crashes_on_exhausted_budget(
        tmp_path, monkeypatch):
    monkeypatch.setattr(backoff, "RETRY_BUDGET", 0)
    plan = FaultPlan(rules=(
        FaultRule(site="executor.job", kind="crash"),))
    runner = JobRunner(cache=ResultCache(tmp_path / "c"))
    with injected(plan):
        with pytest.raises(JobError):
            runner.run([_spec()])


def test_deterministic_sim_failures_are_never_retried(tmp_path, monkeypatch,
                                                      fast_backoff):
    # A ReproError from the simulation fails identically every time;
    # burning the retry budget on it would only slow the batch down.
    from repro.errors import ReproError
    from repro.jobs import executor

    calls = {"n": 0}

    def deterministic_failure(spec_dict, trace_dir):
        calls["n"] += 1
        raise ReproError("deadlock: provably stuck")

    monkeypatch.setattr(executor, "_execute_payload", deterministic_failure)
    monkeypatch.setattr(backoff, "RETRY_BUDGET", 3)
    runner = JobRunner(cache=ResultCache(tmp_path / "c"))
    (resolution,) = runner.resolve([_spec()])
    assert resolution.status == "failed"
    assert calls["n"] == 1  # no retries


def test_corrupt_cache_entry_is_quarantined_and_recomputed(tmp_path):
    cache = ResultCache(tmp_path / "c")
    spec = _spec()
    baseline = JobRunner(cache=cache).resolve([spec])[0]
    assert baseline.status == "computed"
    assert len(cache) == 1

    plan = FaultPlan(rules=(
        FaultRule(site="cache.read", kind="corrupt", max_fires=1),))
    with injected(plan):
        (resolution,) = JobRunner(cache=cache).resolve([spec])
    # Served a recomputed result, never the corrupt bytes.
    assert resolution.status == "computed"
    assert resolution.result == baseline.result
    # The bad entry left the lookup tree into quarantine, and the
    # recomputed result took its place.
    assert cache.quarantined_count() == 1
    assert len(cache) == 1
    assert cache.get_or_none(spec.key()) == baseline.result


def test_an_unreadable_entry_is_a_miss_not_a_corruption(tmp_path):
    cache = ResultCache(tmp_path / "c")
    key = _spec().key()
    cache.put(key, {}, {"x": 1})
    plan = FaultPlan(rules=(
        FaultRule(site="cache.read", kind="io-error", max_fires=1),))
    with injected(plan) as injector:
        assert cache.get(key) is None
        assert injector.firing_count() == 1
        # The good entry stayed where it was: the next read hits.
        assert cache.get(key) == {"x": 1}
    assert cache.quarantined_count() == 0
    # A real read error (here, a directory where the file should be)
    # leaves the lookup tree as it found it, too.
    other = "ab" + "0" * 62
    cache.path_for(other).mkdir(parents=True)
    assert cache.get(other) is None and cache.path_for(other).is_dir()
    assert cache.quarantined_count() == 0


def test_quarantined_entries_are_never_rereadable(tmp_path):
    cache = ResultCache(tmp_path / "c")
    spec = _spec()
    JobRunner(cache=cache).resolve([spec])
    path = cache.path_for(spec.key())
    path.write_text("{ definitely not json", encoding="utf-8")
    assert cache.get(spec.key()) is None
    assert not path.exists()
    assert cache.quarantined_count() == 1
    # Even a repeat offender under the same name is kept distinctly.
    JobRunner(cache=cache).resolve([spec])
    path.write_text("{ corrupt again", encoding="utf-8")
    assert cache.get(spec.key()) is None
    assert cache.quarantined_count() == 2


def test_unwritable_cache_degrades_to_memory_only(tmp_path):
    plan = FaultPlan(rules=(
        FaultRule(site="cache.write", kind="io-error"),))
    cache = ResultCache(tmp_path / "c")
    runner = JobRunner(cache=cache)
    with injected(plan):
        (resolution,) = runner.resolve([_spec()])
        assert resolution.status == "computed"
        # Memoized in-process even though the disk write failed.
        (again,) = runner.resolve([_spec()])
        assert again.status == "hit"
    assert len(cache) == 0


# -- the chaos harness ------------------------------------------------

def test_chaos_batch_passes_with_the_example_plan():
    report = run_chaos(example_plan(), BatchSubmit([_spec(), _spec(12)]))
    assert report.passed, report.summary()
    assert report.statuses == {"computed": 2}
    assert report.injected > 0
    assert set(report.observed_cycles) == set(report.baseline_cycles)
    payload = report.to_dict()
    assert payload["schema"] == "repro-chaos/1"
    assert payload["passed"] is True
    json.dumps(payload)  # report is JSON-serializable


def test_chaos_batch_is_deterministic_per_plan_and_seed():
    specs = [_spec(), _spec(12)]
    first = run_chaos(example_plan(), BatchSubmit(specs))
    second = run_chaos(example_plan(), BatchSubmit(specs))
    assert first.firings == second.firings
    assert first.statuses == second.statuses
    assert first.manifest_counts == second.manifest_counts
    assert first.observed_cycles == second.observed_cycles
    assert (first.cache_entries, first.quarantined) == \
        (second.cache_entries, second.quarantined)
    # A different seed may fire differently, but invariants still hold.
    reseeded = run_chaos(example_plan(seed=999), BatchSubmit(specs))
    assert reseeded.passed, reseeded.summary()


def test_chaos_batch_reports_violations_without_raising(monkeypatch):
    # Sabotage the accounting on purpose: a lost spec must be reported
    # as a violation, not an exception.
    from repro.faults import chaos as chaos_mod

    class _LossyRunner(JobRunner):
        def resolve(self, specs):
            return super().resolve(specs)[:-1]  # drop one answer

    monkeypatch.setattr(chaos_mod, "JobRunner", _LossyRunner)
    warnings: list[logging.LogRecord] = []
    handler = logging.Handler(level=logging.WARNING)
    handler.emit = warnings.append
    # The repro root logger does not propagate once logging is
    # configured, so the handler sits on the subsystem's own logger.
    logger = logging.getLogger("repro.faults")
    logger.addHandler(handler)
    try:
        report = run_chaos(FaultPlan(), BatchSubmit([_spec(), _spec(12)]))
    finally:
        logger.removeHandler(handler)
    assert not report.passed
    assert [v.name for v in report.invariants if not v.ok] == \
        ["every-spec-accounted-once"]
    # A failed batch run is logged as a failed serve run is.
    assert [(r.getMessage(), r.mode, r.violations) for r in warnings] == [
        ("chaos run failed invariants", "batch",
         ["every-spec-accounted-once"])]


@pytest.mark.parametrize("attempts", [0, -3])
def test_chaos_refuses_fewer_than_one_attempt_before_anything_runs(
        attempts, monkeypatch, capsys):
    from repro.faults import chaos as chaos_mod

    def no_run(specs):
        raise AssertionError("a chaos run started")

    monkeypatch.setattr(chaos_mod, "baseline_cycles", no_run)
    with pytest.raises(FaultError, match="attempts must be >= 1"):
        ServeSubmit([_serve_spec()], attempts=attempts)
    # --mode both: the batch half does not run first either.
    assert main(["chaos", "--attempts", str(attempts)]) == 2
    assert "attempts must be >= 1" in capsys.readouterr().err


def test_chaos_serve_survives_drops_timeouts_and_slow_reads():
    plan = FaultPlan(seed=7, rules=(
        FaultRule(site="serve.connection", kind="drop", max_fires=2),
        FaultRule(site="serve.read", kind="slow", latency=0.02,
                  max_fires=2),
        FaultRule(site="serve.batch_timeout", kind="force", max_fires=1),
        FaultRule(site="cache.write", kind="io-error", max_fires=1),
    ))
    report = run_chaos(plan, ServeSubmit([_serve_spec(), _serve_spec(12)]))
    assert report.passed, report.summary()
    assert report.injected > 0
    assert set(report.observed_cycles) == set(report.baseline_cycles)
    names = [inv.name for inv in report.invariants]
    assert "server-stays-responsive" in names


def test_serve_chaos_refuses_inexpressible_machine_configs():
    with pytest.raises(FaultError, match="machine config"):
        ServeSubmit([_spec()])  # small() caches differ


def test_serve_chaos_accepts_a_bandwidth_override():
    # The request schema has always taken machine.bandwidth; the body
    # builder is its inverse, so a half-bandwidth spec lands bit-exact.
    half = MachineConfig.baseline_with(bandwidth=0.5)
    report = run_chaos(FaultPlan(), ServeSubmit([_spec(config=half)]))
    assert report.passed, report.summary()
    assert set(report.observed_cycles) == set(report.baseline_cycles)


# -- the example plan artifact ----------------------------------------

def test_example_plan_file_matches_the_builtin():
    on_disk = FaultPlan.load(EXAMPLES / "chaos_plan.json")
    assert on_disk == example_plan()


def test_chaos_walkthrough_example_runs(capsys):
    import importlib.util
    import sys

    path = EXAMPLES / "chaos_walkthrough.py"
    spec = importlib.util.spec_from_file_location("example_chaos", path)
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    sys.modules["example_chaos"] = module
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    assert "chaos batch: PASS" in out
    assert "re-run with the same seed fires identically: True" in out


# -- the chaos CLI ----------------------------------------------------

def test_cli_chaos_list_sites(capsys):
    from repro.cli import main

    assert main(["chaos", "--list-sites"]) == 0
    out = capsys.readouterr().out
    assert "cache.read" in out and "serve.batch_timeout" in out


def test_cli_chaos_batch_json_report(tmp_path, capsys):
    from repro.cli import main

    report_path = tmp_path / "chaos.json"
    code = main(["chaos", "--mode", "batch", "--workloads", "PageMine",
                 "--scale", "0.05", "--json",
                 "--report", str(report_path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["reports"][0]["mode"] == "batch"
    assert json.loads(report_path.read_text()) == payload
