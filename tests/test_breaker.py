"""Circuit-breaker tests: the state machine alone, then wired into the
request pipeline (trip on consecutive failed batches, fast-shed while
open, drain-signal probe, forced clock-free timeouts)."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import JobError
from repro.faults import FaultPlan, FaultRule, injected, uninstall
from repro.jobs import Resolution, ResultCache, app_result_to_dict
from repro.serve import RequestPipeline, ServeConfig, ServeMetrics
from repro.serve.breaker import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
)
from repro.jobs.resolution import (
    STATUS_FAILED,
    STATUS_HIT,
    STATUS_SHED,
    STATUS_TIMEOUT,
)
from tests.programs import synthetic_spec as _spec


@pytest.fixture(autouse=True)
def _disarmed():
    uninstall()
    yield
    uninstall()


# -- the state machine alone ------------------------------------------

def test_trips_only_after_threshold_consecutive_failures():
    breaker = CircuitBreaker(threshold=3)
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.to_dict()["state"] == STATE_CLOSED and breaker.allow()
    breaker.record_failure()
    assert breaker.to_dict()["state"] == STATE_OPEN
    assert not breaker.allow()


def test_one_served_batch_resets_the_failure_streak():
    breaker = CircuitBreaker(threshold=2)
    breaker.record_failure()
    breaker.record_success()  # mixed batch: somebody got an answer
    breaker.record_failure()
    assert breaker.to_dict()["state"] == STATE_CLOSED


def test_probe_after_denials_half_open_the_breaker():
    breaker = CircuitBreaker(threshold=1, probe_after=3)
    breaker.record_failure()
    assert breaker.to_dict()["state"] == STATE_OPEN
    assert not breaker.allow()  # denial 1
    assert not breaker.allow()  # denial 2
    assert breaker.to_dict()["state"] == STATE_OPEN
    assert not breaker.allow()  # denial 3: the *next* arrival probes
    assert breaker.to_dict()["state"] == STATE_HALF_OPEN


def test_half_open_admits_exactly_one_probe():
    breaker = CircuitBreaker(threshold=1, probe_after=1)
    breaker.record_failure()
    breaker.allow()
    assert breaker.to_dict()["state"] == STATE_HALF_OPEN
    assert breaker.allow() is True  # the probe
    assert breaker.allow() is False  # everyone else waits on it
    breaker.record_success()
    assert breaker.to_dict()["state"] == STATE_CLOSED
    assert breaker.allow()


def test_failed_probe_reopens():
    breaker = CircuitBreaker(threshold=1, probe_after=1)
    breaker.record_failure()
    breaker.allow()
    assert breaker.allow()  # probe admitted
    breaker.record_failure()
    assert breaker.to_dict()["state"] == STATE_OPEN
    # The shed budget restarts from zero after re-opening.
    assert not breaker.allow()
    assert breaker.to_dict()["state"] == STATE_HALF_OPEN


def test_note_drain_half_opens_only_while_open():
    breaker = CircuitBreaker(threshold=1, probe_after=100)
    breaker.note_drain()
    assert breaker.to_dict()["state"] == STATE_CLOSED  # no-op when closed
    breaker.record_failure()
    breaker.note_drain()  # evidence the backend still drains
    assert breaker.to_dict()["state"] == STATE_HALF_OPEN


def test_to_dict_snapshot():
    breaker = CircuitBreaker(threshold=4, probe_after=6)
    breaker.record_failure()
    assert breaker.to_dict() == {
        "state": STATE_CLOSED, "threshold": 4, "probe_after": 6,
        "consecutive_failures": 1}


# -- wired into the pipeline ------------------------------------------

class _FlakyRunner:
    """Runner double that fails outright until ``broken`` is cleared."""

    def __init__(self) -> None:
        self.broken = True
        self.calls = 0

    def resolve(self, specs):
        self.calls += 1
        if self.broken:
            raise JobError("backend down")
        return [Resolution(key=spec.key(), status="computed",
                              backend="serial", result={"ok": True})
                for spec in specs]


def _pipeline(config: ServeConfig, runner, cache=None):
    metrics = ServeMetrics()
    pipeline = RequestPipeline(config, metrics, cache,
                               runner_factory=lambda: runner)
    return pipeline, metrics


def test_pipeline_trips_sheds_then_recovers_through_a_probe():
    runner = _FlakyRunner()
    config = ServeConfig(workers=1, breaker_threshold=2,
                         breaker_probe_after=2)
    pipeline, metrics = _pipeline(config, runner)

    async def go():
        await pipeline.start()
        outcomes = []
        # Two failed batches trip the breaker...
        for n in (1, 2):
            outcomes.append((await pipeline.resolve(_spec(n))).status)
        assert pipeline.breaker.to_dict()["state"] == STATE_OPEN
        # ...so the next arrivals shed without touching the backend.
        calls_when_open = runner.calls
        shed1 = await pipeline.resolve(_spec(3))
        shed2 = await pipeline.resolve(_spec(4))
        assert runner.calls == calls_when_open
        # The second denial re-armed the probe; the backend has healed,
        # so the probe batch closes the breaker again.
        runner.broken = False
        assert pipeline.breaker.to_dict()["state"] == STATE_HALF_OPEN
        probe = await pipeline.resolve(_spec(5))
        await pipeline.drain()
        return outcomes, shed1, shed2, probe

    outcomes, shed1, shed2, probe = asyncio.run(go())
    assert outcomes == [STATUS_FAILED, STATUS_FAILED]
    for shed in (shed1, shed2):
        assert shed.status == STATUS_SHED
        assert shed.error == "circuit open"
        assert shed.retry_after is not None and shed.retry_after > 0
    assert probe.status == "computed"
    assert pipeline.breaker.to_dict()["state"] == STATE_CLOSED
    assert metrics.shed.value() == 2


def test_cache_hit_while_open_is_a_drain_signal(tmp_path):
    runner = _FlakyRunner()
    cache = ResultCache(tmp_path / "c")
    warm = _spec(6)
    cache.put(warm.key(), warm.to_dict(), app_result_to_dict(warm.run()))
    config = ServeConfig(workers=1, breaker_threshold=1,
                         breaker_probe_after=100)
    pipeline, _ = _pipeline(config, runner, cache=cache)

    async def go():
        await pipeline.start()
        first = await pipeline.resolve(_spec(1))
        assert first.status == STATUS_FAILED
        assert pipeline.breaker.to_dict()["state"] == STATE_OPEN
        # A hit proves an abandoned batch warmed the cache: half-open
        # immediately instead of waiting out 100 shed decisions.
        hit = await pipeline.resolve(warm)
        assert hit.status == STATUS_HIT
        assert pipeline.breaker.to_dict()["state"] == STATE_HALF_OPEN
        runner.broken = False
        probe = await pipeline.resolve(_spec(2))
        await pipeline.drain()
        return probe

    probe = asyncio.run(go())
    assert probe.status == "computed"
    assert pipeline.breaker.to_dict()["state"] == STATE_CLOSED


def test_forced_batch_timeout_never_reaches_the_runner():
    runner = _FlakyRunner()
    runner.broken = False
    config = ServeConfig(workers=1, breaker_threshold=2)
    pipeline, _ = _pipeline(config, runner)
    plan = FaultPlan(rules=(
        FaultRule(site="serve.batch_timeout", kind="force", max_fires=1),))

    async def go():
        await pipeline.start()
        with injected(plan) as injector:
            timed_out = await pipeline.resolve(_spec(1))
            assert injector.firing_count() == 1
            recovered = await pipeline.resolve(_spec(2))  # budget spent
        await pipeline.drain()
        return timed_out, recovered

    timed_out, recovered = asyncio.run(go())
    assert timed_out.status == STATUS_TIMEOUT
    assert recovered.status == "computed"
    # The forced timeout counted as a breaker failure but the healthy
    # follow-up batch reset the streak.
    assert runner.calls == 1  # the forced batch never ran
    assert pipeline.breaker.to_dict()["consecutive_failures"] == 0


def test_breaker_state_is_published_in_health_payload():
    from repro.serve import ExperimentServer

    config = ServeConfig(workers=1, breaker_threshold=7,
                         breaker_probe_after=9)
    server = ExperimentServer(config)
    payload = server._health_payload()
    assert payload["breaker"]["state"] == STATE_CLOSED
    assert payload["breaker"]["threshold"] == 7
