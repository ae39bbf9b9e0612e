"""Unit tests for repro.faults: plans, the injector, hooks, backoff.

Covers the declarative plan layer (validation, JSON round-trips), the
``max_fires`` budget, the kind-filtering contract between sibling hooks
probing one site, and the jobs-layer backoff schedule the injector is
used to harden.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import FaultError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedCrashError,
    InjectedIOError,
    SITES,
    active,
    injected,
    install,
    sites_table,
    uninstall,
)
from repro.faults import hooks
from repro.jobs import backoff
from repro.jobs.backoff import backoff_delay


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with no plan armed."""
    uninstall()
    yield
    uninstall()


# -- plan validation and round-trips ----------------------------------

def test_rule_rejects_unknown_site_and_unsupported_kind():
    with pytest.raises(FaultError, match="unknown fault site"):
        FaultRule(site="cache.nope", kind="io-error")
    with pytest.raises(FaultError, match="does not support kind"):
        FaultRule(site="cache.read", kind="drop")


def test_rule_validates_trigger_fields():
    with pytest.raises(FaultError, match="max_fires"):
        FaultRule(site="cache.read", kind="io-error", max_fires=-1)
    with pytest.raises(FaultError, match="latency"):
        FaultRule(site="serve.read", kind="slow", latency=-0.1)
    # A kind that sleeps 0 s would fire, be counted and do nothing; a
    # latency on a kind that does not sleep would never act.
    for site, kind in (("executor.job", "latency"), ("serve.read", "slow")):
        with pytest.raises(FaultError, match="latency must be > 0"):
            FaultRule(site=site, kind=kind)
    with pytest.raises(FaultError, match="does not sleep"):
        FaultRule(site="executor.job", kind="crash", latency=0.5)
    with pytest.raises(FaultError, match="does not sleep"):
        FaultPlan.from_dict({"faults": [
            {"site": "cache.read", "kind": "corrupt", "latency": 1.0}]})


def test_plan_json_round_trip_preserves_everything():
    plan = FaultPlan(description="round trip", rules=(
        FaultRule(site="cache.read", kind="torn", max_fires=4),
        FaultRule(site="serve.read", kind="slow", latency=0.5),
    ))
    assert FaultPlan.from_json(json.dumps(plan.to_dict())) == plan


def test_plan_load_and_malformed_inputs(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(FaultPlan(description="d", rules=(
        FaultRule(site="cache.write", kind="io-error"),)).to_dict()))
    assert FaultPlan.load(path).description == "d"
    with pytest.raises(FaultError, match="cannot read"):
        FaultPlan.load(tmp_path / "missing.json")
    with pytest.raises(FaultError, match="not valid JSON"):
        FaultPlan.from_json("{nope")
    with pytest.raises(FaultError, match="unsupported fault plan schema"):
        FaultPlan.from_dict({"schema": "repro-faults/999", "faults": []})
    with pytest.raises(FaultError, match="unknown fault rule field"):
        FaultPlan.from_dict({"faults": [
            {"site": "cache.read", "kind": "torn", "color": "red"}]})


_RULE = {"site": "cache.read", "kind": "io-error"}
#: Key -> a plan naming it: a misspelled top-level key, then the removed
#: plan seed and rule trigger fields.
_KEYS_THAT_DO_NOT_ACT = {
    "fualts": {"fualts": [_RULE]},
    "seed": {"seed": 7, "faults": [_RULE]},
    **{field: {"faults": [{**_RULE, field: value}]}
       for field, value in (("probability", 0.5), ("after", 1),
                            ("every", 2), ("match", {"key_prefix": "ab"}))},
}


@pytest.mark.parametrize("key", list(_KEYS_THAT_DO_NOT_ACT))
def test_a_plan_key_that_does_not_act_is_refused_by_name(key, tmp_path,
                                                         capsys):
    """A misspelled key would load as an empty plan that "passes" with
    nothing injected; a removed trigger field would be accepted and
    never act."""
    plan = _KEYS_THAT_DO_NOT_ACT[key]
    with pytest.raises(FaultError, match=f"unknown fault .*'{key}'"):
        FaultPlan.from_dict({"schema": "repro-faults/1", **plan})
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    assert main(["chaos", "--plan", str(path), "--mode", "batch"]) == 2
    assert f"'{key}'" in capsys.readouterr().err


def test_sites_registry_and_table_agree():
    rows = sites_table()
    assert {row[0] for row in rows} == set(SITES)
    for name, layer, kinds, _description in rows:
        assert SITES[name].layer == layer
        assert tuple(kinds.split(",")) == SITES[name].kinds


# -- injector trigger pipeline ----------------------------------------

def _decisions(injector: FaultInjector, site: str, count: int,
               ctx: dict | None = None) -> list[bool]:
    return [injector.decide(site, ctx or {}) is not None
            for _ in range(count)]


def test_max_fires_bounds_the_firings():
    plan = FaultPlan(rules=(
        FaultRule(site="cache.read", kind="io-error", max_fires=2),
        FaultRule(site="cache.write", kind="io-error"),))
    injector = FaultInjector(plan)
    # Fires at the first occurrences until the budget is spent...
    assert _decisions(injector, "cache.read", 5) == [
        True, True, False, False, False]
    # ...and an unbounded rule fires at every one.
    assert _decisions(injector, "cache.write", 3) == [True, True, True]
    assert [(f.rule, f.occurrence) for f in injector.firings()] == [
        (0, 1), (0, 2), (1, 1), (1, 2), (1, 3)]


def test_kind_filter_prevents_sibling_hooks_consuming_occurrences():
    # One torn-payload rule at cache.read: the exception hook
    # (maybe_raise) probes the same site but cannot perform `torn`,
    # so its probes must not consume the rule's occurrences.
    plan = FaultPlan(rules=(
        FaultRule(site="cache.read", kind="torn", max_fires=1),))
    with injected(plan) as injector:
        hooks.maybe_raise("cache.read", key="k")  # must not consume
        assert injector.firing_count() == 0
        assert hooks.corrupt_text("cache.read", "payload", key="k") \
            != "payload"
        assert injector.firing_count() == 1


def test_firing_log_records_site_kind_rule_and_context():
    plan = FaultPlan(rules=(
        FaultRule(site="executor.job", kind="crash", max_fires=1),))
    with injected(plan) as injector:
        with pytest.raises(Exception):
            hooks.maybe_raise("executor.job", key="deadbeef",
                              workload="PageMine")
        (firing,) = injector.firings()
    assert firing.site == "executor.job"
    assert firing.kind == "crash"
    assert firing.rule == 0
    assert firing.occurrence == 1
    assert firing.workload == "PageMine"
    assert firing.to_dict()["key"] == "deadbeef"


# -- hooks ------------------------------------------------------------

def test_hooks_are_noops_when_disarmed():
    assert active() is None
    hooks.maybe_raise("cache.read", key="k")
    assert hooks.corrupt_text("cache.read", "text", key="k") == "text"
    assert hooks.delay_seconds("serve.read") == 0.0
    assert hooks.forced_timeout("executor.timeout") is False
    assert hooks.drop_connection("serve.connection") is False


def test_injected_io_error_is_an_oserror():
    assert issubclass(InjectedIOError, OSError)
    plan = FaultPlan(rules=(
        FaultRule(site="cache.write", kind="io-error"),))
    with injected(plan):
        with pytest.raises(InjectedIOError):
            hooks.maybe_raise("cache.write", key="k")


def test_value_hooks_report_their_faults():
    plan = FaultPlan(rules=(
        FaultRule(site="serve.read", kind="slow", latency=0.25),
        FaultRule(site="executor.timeout", kind="force", max_fires=1),
        FaultRule(site="serve.connection", kind="drop", max_fires=1),
    ))
    with injected(plan):
        assert hooks.delay_seconds("serve.read") == 0.25
        assert hooks.forced_timeout("executor.timeout") is True
        assert hooks.forced_timeout("executor.timeout") is False  # budget
        assert hooks.drop_connection("serve.connection") is True
        assert hooks.drop_connection("serve.connection") is False


def test_torn_payload_is_a_strict_prefix_and_corrupt_is_garbage():
    plan = FaultPlan(rules=(
        FaultRule(site="cache.read", kind="torn", max_fires=1),
        FaultRule(site="cache.read", kind="corrupt", max_fires=1),))
    text = '{"schema": 3, "result": {"cycles": 12}}'
    with injected(plan):
        torn = hooks.corrupt_text("cache.read", text, key="k")
        assert text.startswith(torn) and 0 < len(torn) < len(text)
        garbage = hooks.corrupt_text("cache.read", text, key="k")
        assert garbage != text and not garbage.startswith("{")
        # Budgets exhausted: payloads pass through untouched again.
        assert hooks.corrupt_text("cache.read", text, key="k") == text


# -- decide / perform (parent decides, pool worker performs) ----------

def test_decide_consumes_the_budget_and_perform_needs_no_injector():
    plan = FaultPlan(rules=(
        FaultRule(site="executor.job", kind="crash", max_fires=1),))
    with injected(plan) as injector:
        rule = hooks.decide("executor.job", key="k", workload="EP")
        assert rule is plan.rules[0]
        assert hooks.decide("executor.job", key="k") is None  # spent
        assert [f.kind for f in injector.firings()] == ["crash"]
    # The worker side: no plan armed, it performs what it was handed.
    assert active() is None
    hooks.perform(None, "executor.job")
    with pytest.raises(InjectedCrashError, match="executor.job"):
        hooks.perform(rule, "executor.job")


def test_install_returns_and_uninstall_disarms():
    injector = FaultInjector(FaultPlan())
    assert install(injector) is injector
    assert active() is injector
    uninstall()
    assert active() is None


# -- backoff schedule -------------------------------------------------

def test_backoff_delay_is_deterministic_and_jittered():
    first = backoff_delay("key", 1)
    assert first == backoff_delay("key", 1)
    assert backoff_delay("other", 1) != first
    # Jitter keeps each delay within [0.5, 1.0) of the nominal value.
    for attempt in range(1, 8):
        nominal = min(backoff.BACKOFF_CAP,
                      backoff.BACKOFF_BASE * 2 ** (attempt - 1))
        delay = backoff_delay("key", attempt)
        assert 0.5 * nominal <= delay < nominal


def test_backoff_schedule_doubles_until_the_cap(monkeypatch):
    monkeypatch.setattr(backoff, "BACKOFF_BASE", 1.0)
    monkeypatch.setattr(backoff, "BACKOFF_CAP", 8.0)
    schedule = [backoff_delay("key", attempt) for attempt in range(1, 11)]
    assert len(schedule) == 10
    nominals = [min(8.0, 1.0 * 2 ** i) for i in range(10)]
    for delay, nominal in zip(schedule, nominals):
        assert 0.5 * nominal <= delay < nominal
    # The cap bounds every delay even as attempts keep doubling.
    assert max(schedule) < 8.0
