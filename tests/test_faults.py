"""Unit tests for repro.faults: plans, the injector, hooks, backoff.

Covers the declarative plan layer (validation, JSON round-trips), the
deterministic trigger pipeline (after / every / probability / max_fires
under a fixed seed), the kind-filtering contract between sibling hooks
probing one site, and the jobs-layer backoff schedule the injector is
used to harden.
"""

from __future__ import annotations

import json

import pytest

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
    with pytest.raises(FaultError, match="probability"):
        FaultRule(site="cache.read", kind="io-error", probability=1.5)
    with pytest.raises(FaultError, match="after"):
        FaultRule(site="cache.read", kind="io-error", after=-1)
    with pytest.raises(FaultError, match="every"):
        FaultRule(site="cache.read", kind="io-error", every=0)
    with pytest.raises(FaultError, match="latency"):
        FaultRule(site="serve.read", kind="slow", latency=-0.1)
    with pytest.raises(FaultError, match="unknown match key"):
        FaultRule(site="cache.read", kind="io-error",
                  match={"hostname": "x"})


def test_plan_json_round_trip_preserves_everything():
    plan = FaultPlan(seed=77, description="round trip", rules=(
        FaultRule(site="cache.read", kind="torn", probability=0.25,
                  after=2, every=3, max_fires=4,
                  match={"key_prefix": "ab"}),
        FaultRule(site="serve.read", kind="slow", latency=0.5),
    ))
    assert FaultPlan.from_json(json.dumps(plan.to_dict())) == plan


def test_plan_load_and_malformed_inputs(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(FaultPlan(seed=5, rules=(
        FaultRule(site="cache.write", kind="io-error"),)).to_dict()))
    assert FaultPlan.load(path).seed == 5
    with pytest.raises(FaultError, match="cannot read"):
        FaultPlan.load(tmp_path / "missing.json")
    with pytest.raises(FaultError, match="not valid JSON"):
        FaultPlan.from_json("{nope")
    with pytest.raises(FaultError, match="unsupported fault plan schema"):
        FaultPlan.from_dict({"schema": "repro-faults/999", "faults": []})
    with pytest.raises(FaultError, match="unknown fault rule field"):
        FaultPlan.from_dict({"faults": [
            {"site": "cache.read", "kind": "torn", "color": "red"}]})


def test_with_seed_changes_only_the_seed():
    plan = FaultPlan(seed=1, rules=(
        FaultRule(site="cache.read", kind="corrupt"),), description="d")
    reseeded = plan.with_seed(9)
    assert reseeded.seed == 9
    assert reseeded.rules == plan.rules
    assert reseeded.description == "d"


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


def test_after_every_and_max_fires_schedule():
    plan = FaultPlan(seed=0, rules=(
        FaultRule(site="cache.read", kind="io-error", after=2, every=3,
                  max_fires=2),))
    fired = _decisions(FaultInjector(plan), "cache.read", 12)
    # Occurrences 1-2 skipped, then every 3rd of the rest (3, 6, 9...)
    # capped at two firings.
    assert fired == [False, False, True, False, False, True,
                     False, False, False, False, False, False]


def test_probability_draws_are_deterministic_per_seed():
    plan = FaultPlan(seed=42, rules=(
        FaultRule(site="cache.read", kind="io-error", probability=0.5),))
    first = _decisions(FaultInjector(plan), "cache.read", 40)
    second = _decisions(FaultInjector(plan), "cache.read", 40)
    assert first == second
    assert any(first) and not all(first)
    reseeded = _decisions(FaultInjector(plan.with_seed(43)),
                          "cache.read", 40)
    assert reseeded != first  # a different seed draws differently


def test_match_predicate_gates_occurrence_counting():
    plan = FaultPlan(rules=(
        FaultRule(site="cache.read", kind="io-error", after=1,
                  match={"key_prefix": "aa"}),))
    injector = FaultInjector(plan)
    # Non-matching contexts are never counted toward `after`.
    assert injector.decide("cache.read", {"key": "bb00"}) is None
    assert injector.decide("cache.read", {"key": "aa00"}) is None  # after
    assert injector.decide("cache.read", {"key": "bb11"}) is None
    rule = injector.decide("cache.read", {"key": "aa11"})
    assert rule is not None and rule.kind == "io-error"


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
