"""Tests for :mod:`repro.obs`: registry thread-safety, span tracing and
propagation, structured logging, the persistent run registry (including
process-restart round-trips and the ``repro obs`` CLI), the
drain-rate-derived ``Retry-After``, and the manifest/loadgen satellite
changes."""

from __future__ import annotations

import asyncio
import io
import json
import logging
import multiprocessing
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime

import pytest

from repro import cli
from repro.jobs import SCHEMA_VERSION, JobRunner, JobSpec, PolicySpec, ResultCache, WorkloadRef
from repro.jobs.manifest import RunManifest
from repro.obs import (
    configure_logging,
    default_registry,
    get_logger,
    host_fingerprint,
    reset_default_registry,
)
from repro.obs.jsonl import read_jsonl
from repro.obs.log import current as current_logging
from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.runreg import RunRecord, RunRegistry
from repro.obs.tracing import (
    Span,
    SpanRecorder,
    current_context,
    recorder,
    span,
    use_context,
)
from repro.serve.config import ServeConfig
from repro.serve.loadgen import LoadgenReport
from repro.serve.metrics import ServeMetrics
from repro.serve.pipeline import (
    RETRY_AFTER_MAX,
    RETRY_AFTER_MIN,
    RequestPipeline,
)
from repro.sim.config import MachineConfig
from tests.programs import span_from_dict


def _synthetic_spec(iterations: int = 8, threads: int = 2,
                    policy: str | None = None) -> JobSpec:
    pol = (PolicySpec(kind=policy) if policy is not None
           else PolicySpec.static(threads))
    return JobSpec(
        workload=WorkloadRef.synthetic(cs_fraction=0.2, bus_lines=2,
                                       iterations=iterations,
                                       compute_instr=200),
        policy=pol,
        config=MachineConfig.small())


# -- metrics registry -------------------------------------------------

def test_registry_concurrent_counters_exact_totals():
    registry = MetricsRegistry()
    counter = registry.counter("c_total", "c")
    labeled = registry.counter("l_total", "l", label="kind")
    gauge = registry.gauge("g", "g")
    threads, per_thread = 8, 500

    def hammer(i: int) -> None:
        for _ in range(per_thread):
            counter.inc()
            labeled.inc("a" if i % 2 else "b")
            gauge.inc()
            gauge.dec()

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(hammer, range(threads)))
    assert counter.value() == threads * per_thread
    assert labeled.value("a") == labeled.value("b") == \
        threads * per_thread // 2
    assert labeled.value() == 0  # a family has no unlabelled sample
    assert gauge.value() == 0


def test_registry_concurrent_histogram_exact_totals():
    hist = Histogram("h", "h", buckets=(0.5, 1.5, 2.5))
    threads, per_thread = 8, 400

    def hammer(i: int) -> None:
        for j in range(per_thread):
            hist.observe(float(j % 3))

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(hammer, range(threads)))
    total = threads * per_thread
    assert hist.count == total
    assert hist.sum == pytest.approx(
        threads * sum(j % 3 for j in range(per_thread)))
    rendered = "\n".join(hist.render())
    assert f'h_bucket{{le="+Inf"}} {total}' in rendered
    assert f'h_bucket{{le="2.5"}} {total}' in rendered


def test_registry_get_or_create_is_idempotent_and_kind_checked():
    registry = MetricsRegistry()
    a = registry.counter("x_total", "x")
    assert registry.counter("x_total", "ignored") is a
    with pytest.raises(ValueError, match="already registered as"):
        registry.gauge("x_total", "x")
    with pytest.raises(ValueError, match="with label ''"):
        registry.counter("x_total", "x", label="kind")
    assert registry._instruments["x_total"] is a
    assert registry.render_prometheus().count("# TYPE") == 1


def test_registry_render_orders_by_registration():
    registry = MetricsRegistry()
    registry.gauge("zz", "last registered first rendered? no")
    registry.counter("aa_total", "registered second")
    text = registry.render_prometheus()
    assert text.index("zz") < text.index("aa_total")
    assert text.endswith("\n")
    assert MetricsRegistry().render_prometheus() == ""


def test_reset_default_registry_gives_clean_slate():
    default_registry().counter("tmp_total", "t").inc()
    fresh = reset_default_registry()
    assert fresh is default_registry()
    assert "tmp_total" not in fresh._instruments


def test_serve_metrics_render_matches_pre_refactor_exposition():
    """The panel's /metrics text is byte-identical to the pre-obs
    renderer for the same updates (schema-compatibility guarantee)."""
    metrics = ServeMetrics()
    metrics.requests.inc("/v1/run")
    metrics.hits.inc()
    metrics.in_flight.set(2)
    metrics.latency.observe(0.002)
    text = metrics.render()
    lines = text.splitlines()
    # Families appear in the fixed pre-refactor order.
    type_lines = [ln.split() for ln in lines if ln.startswith("# TYPE")]
    assert [parts[2] for parts in type_lines] == [
        "repro_serve_requests_total", "repro_serve_responses_total",
        "repro_serve_cache_hits_total", "repro_serve_cache_misses_total",
        "repro_serve_coalesced_total", "repro_serve_shed_total",
        "repro_serve_timeouts_total", "repro_serve_failures_total",
        "repro_serve_in_flight", "repro_serve_request_seconds",
        "repro_process_max_resident_bytes"]
    assert [parts[3] for parts in type_lines][:2] == ["counter", "counter"]
    assert 'repro_serve_requests_total{endpoint="/v1/run"} 1' in lines
    assert "repro_serve_in_flight 2" in lines
    assert text.endswith("\n")


#: The ``/metrics`` body after the updates in
#: ``test_metrics_body_is_byte_pinned``, byte for byte.
METRICS_BODY_PIN = "\n".join([
    "# HELP repro_serve_requests_total HTTP requests received, by endpoint.",
    "# TYPE repro_serve_requests_total counter",
    r'repro_serve_requests_total{endpoint="/v1/\"odd\"\npath"} 1',
    'repro_serve_requests_total{endpoint="/v1/run"} 2',
    "# HELP repro_serve_responses_total HTTP responses sent, by status code.",
    "# TYPE repro_serve_responses_total counter",
    'repro_serve_responses_total{code="200"} 1',
    'repro_serve_responses_total{code="429"} 1',
    "# HELP repro_serve_cache_hits_total Requests answered read-only from "
    "the result cache.",
    "# TYPE repro_serve_cache_hits_total counter",
    "repro_serve_cache_hits_total 2",
    "# HELP repro_serve_cache_misses_total Requests that required a "
    "simulation submission.",
    "# TYPE repro_serve_cache_misses_total counter",
    "repro_serve_cache_misses_total 0",
    "# HELP repro_serve_coalesced_total Requests folded into an identical "
    "in-flight request.",
    "# TYPE repro_serve_coalesced_total counter",
    "repro_serve_coalesced_total 0",
    "# HELP repro_serve_shed_total Requests refused by admission control "
    "(429).",
    "# TYPE repro_serve_shed_total counter",
    "repro_serve_shed_total 1",
    "# HELP repro_serve_timeouts_total Requests whose simulation exceeded "
    "the request timeout.",
    "# TYPE repro_serve_timeouts_total counter",
    "repro_serve_timeouts_total 0",
    "# HELP repro_serve_failures_total Requests whose simulation failed.",
    "# TYPE repro_serve_failures_total counter",
    "repro_serve_failures_total 0",
    "# HELP repro_serve_in_flight Requests currently being handled.",
    "# TYPE repro_serve_in_flight gauge",
    "repro_serve_in_flight 1",
    "# HELP repro_serve_request_seconds Wall-clock request latency in "
    "seconds.",
    "# TYPE repro_serve_request_seconds histogram",
    'repro_serve_request_seconds_bucket{le="0.001"} 0',
    'repro_serve_request_seconds_bucket{le="0.0025"} 0',
    'repro_serve_request_seconds_bucket{le="0.005"} 1',
    'repro_serve_request_seconds_bucket{le="0.01"} 1',
    'repro_serve_request_seconds_bucket{le="0.025"} 1',
    'repro_serve_request_seconds_bucket{le="0.05"} 1',
    'repro_serve_request_seconds_bucket{le="0.1"} 1',
    'repro_serve_request_seconds_bucket{le="0.25"} 1',
    'repro_serve_request_seconds_bucket{le="0.5"} 1',
    'repro_serve_request_seconds_bucket{le="1"} 1',
    'repro_serve_request_seconds_bucket{le="2.5"} 1',
    'repro_serve_request_seconds_bucket{le="5"} 1',
    'repro_serve_request_seconds_bucket{le="10"} 1',
    'repro_serve_request_seconds_bucket{le="+Inf"} 2',
    "repro_serve_request_seconds_sum 99.503",
    "repro_serve_request_seconds_count 2",
    "# HELP repro_process_max_resident_bytes Peak resident set size of the "
    "server process (ru_maxrss).",
    "# TYPE repro_process_max_resident_bytes gauge",
    "repro_process_max_resident_bytes 1572864",
    "# HELP repro_serve_breaker_state Circuit breaker state (0 closed, "
    "1 half-open, 2 open).",
    "# TYPE repro_serve_breaker_state gauge",
    "repro_serve_breaker_state 0",
    "# HELP repro_serve_breaker_transitions_total Circuit breaker "
    "transitions by edge.",
    "# TYPE repro_serve_breaker_transitions_total counter",
    'repro_serve_breaker_transitions_total{edge="closed->open"} 1',
    'repro_serve_breaker_transitions_total{edge="half-open->closed"} 1',
    'repro_serve_breaker_transitions_total{edge="open->half-open"} 1',
    "# HELP repro_pin_total Unlabelled pin counter.",
    "# TYPE repro_pin_total counter",
    "repro_pin_total 1",
    "# HELP repro_pin_ratio Pin gauge.",
    "# TYPE repro_pin_ratio gauge",
    "repro_pin_ratio 0.25",
    "# HELP repro_pin_seconds Pin histogram.",
    "# TYPE repro_pin_seconds histogram",
    'repro_pin_seconds_bucket{le="0.5"} 0',
    'repro_pin_seconds_bucket{le="1"} 0',
    'repro_pin_seconds_bucket{le="+Inf"} 1',
    "repro_pin_seconds_sum 1.5",
    "repro_pin_seconds_count 1",
    ""])


def test_metrics_body_is_byte_pinned(monkeypatch):
    """What ``GET /metrics`` serves — the panel, then the default
    registry — after a fixed sequence of updates through the public
    instrument API, compared byte for byte with a recorded body."""
    import resource
    from types import SimpleNamespace

    from repro.serve.breaker import CircuitBreaker

    monkeypatch.setattr(resource, "getrusage",
                        lambda _who: SimpleNamespace(ru_maxrss=1536))
    reset_default_registry()
    metrics = ServeMetrics()
    metrics.requests.inc("/v1/run")
    metrics.requests.inc('/v1/"odd"\npath')
    metrics.requests.inc("/v1/run")
    metrics.responses.inc("200")
    metrics.responses.inc("429")
    metrics.hits.inc()
    metrics.hits.inc()
    metrics.shed.inc()
    metrics.in_flight.inc()
    metrics.in_flight.inc()
    metrics.in_flight.dec()
    metrics.latency.observe(0.003)
    metrics.latency.observe(99.5)  # above every bucket: only +Inf
    breaker = CircuitBreaker(threshold=1)  # walks all three edges
    breaker.record_failure()
    breaker.note_drain()
    breaker.record_success()
    default_registry().counter("repro_pin_total",
                               "Unlabelled pin counter.").inc()
    default_registry().gauge("repro_pin_ratio", "Pin gauge.").set(0.25)
    default_registry().histogram("repro_pin_seconds", "Pin histogram.",
                                 buckets=(0.5, 1.0)).observe(1.5)
    body = metrics.render() + default_registry().render_prometheus()
    assert body == METRICS_BODY_PIN


# -- span tracing -----------------------------------------------------

def test_span_nesting_parent_ids_and_trace_id(span_sink):
    with span("outer", layer="test") as outer_ctx:
        assert current_context() is outer_ctx
        with span("inner") as inner_ctx:
            assert inner_ctx.trace_id == outer_ctx.trace_id
            assert inner_ctx.parent_id == outer_ctx.span_id
            inner_ctx.attrs["learned"] = "late"  # the span's own
    assert current_context() is None
    for ident, digits in ((outer_ctx.trace_id, 32), (outer_ctx.span_id, 16),
                          (inner_ctx.span_id, 16)):
        assert len(ident) == digits and int(ident, 16) >= 0
    spans = span_sink(trace_id=outer_ctx.trace_id)
    by_name = {s.name: s for s in spans}
    assert set(by_name) == {"outer", "inner"}
    assert by_name["inner"].parent_id == by_name["outer"].span_id
    assert by_name["outer"].parent_id == ""
    assert by_name["outer"].attrs == {"layer": "test"}
    assert by_name["inner"].attrs == {"learned": "late"}
    assert by_name["outer"].end >= by_name["outer"].start


def test_span_propagates_across_thread_with_use_context(span_sink):
    with span("parent") as ctx:
        def worker():
            with use_context(ctx):
                with span("child"):
                    pass
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(worker).result()
    child = span_sink(trace_id=ctx.trace_id, name="child")
    assert len(child) == 1
    assert child[0].parent_id == ctx.span_id


def test_span_does_not_leak_into_plain_executor_threads():
    with span("parent"):
        with ThreadPoolExecutor(max_workers=1) as pool:
            assert pool.submit(current_context).result() is None


def test_span_records_error_status_and_reraises(span_sink):
    with pytest.raises(ValueError):
        with span("boom") as ctx:
            raise ValueError("no")
    failed = span_sink(trace_id=ctx.trace_id, name="boom")
    assert failed[0].status == "error"


def _count_span_builds(monkeypatch) -> list[str]:
    """Names of the :class:`Span` records built from here on."""
    import repro.obs.tracing as tracing

    built: list[str] = []

    def counting(**fields):
        built.append(fields["name"])
        return Span(**fields)

    monkeypatch.setattr(tracing, "Span", counting)
    return built


def test_a_span_with_no_sink_builds_no_record(monkeypatch):
    monkeypatch.setattr(recorder(), "sink", None)
    built = _count_span_builds(monkeypatch)
    with span("outer") as outer:
        with span("inner") as inner:
            assert inner.parent_id == outer.span_id
    assert built == [] and current_context() is None


def test_sink_rows_keep_names_parents_attrs_and_status(monkeypatch,
                                                      span_sink):
    built = _count_span_builds(monkeypatch)
    with span("serve.request", endpoint="/v1/run") as root:
        with span("serve.schema"):
            pass
        with span("serve.cache_probe", key="k") as probe:
            probe.attrs["tier"] = "miss"
        with pytest.raises(ValueError):
            with span("serve.batch", batch_size=1, keys=["k"]):
                raise ValueError("no")
    spans = span_sink(trace_id=root.trace_id)
    names = {s.span_id: s.name for s in spans}
    assert [(s.name, names.get(s.parent_id, ""), s.attrs, s.status)
            for s in spans] == [
        ("serve.schema", "serve.request", {}, "ok"),
        ("serve.cache_probe", "serve.request",
         {"key": "k", "tier": "miss"}, "ok"),
        ("serve.batch", "serve.request",
         {"batch_size": 1, "keys": ["k"]}, "error"),
        ("serve.request", "", {"endpoint": "/v1/run"}, "ok"),
    ]
    assert built == [s.name for s in spans]


def test_span_jsonl_round_trip_and_sink(tmp_path, span_sink):
    local = SpanRecorder()
    local.set_sink(tmp_path / "copy.jsonl")
    with span("one", key="k"):
        pass
    spans = span_sink(name="one")
    for s in spans:
        local.sink.append(s.to_dict())
    parsed = read_jsonl(tmp_path / "copy.jsonl", span_from_dict)
    assert [s.to_dict() for s in parsed] == [s.to_dict() for s in spans]


def test_span_dict_round_trip_is_exact_when_bounds_round_apart():
    """Raw duration 1.2 us, but the 6-place bounds sit 2 us apart."""
    one = Span(trace_id="t", span_id="s", parent_id="", name="n",
               start=10.0000004, end=10.0000016)
    assert span_from_dict(one.to_dict()).to_dict() == one.to_dict()


# -- structured logging -----------------------------------------------

def test_json_logging_carries_trace_ids_and_extras():
    stream = io.StringIO()
    configure_logging(level="INFO", json_lines=True, stream=stream)
    try:
        assert current_logging() == ("INFO", True)  # what a pool worker gets
        log = get_logger("serve")
        with span("req") as ctx:
            log.info("request", extra={"endpoint": "/v1/run", "status": 200})
        doc = json.loads(stream.getvalue().strip())
        assert doc["msg"] == "request"
        assert doc["logger"] == "repro.serve"
        assert doc["level"] == "INFO"
        assert doc["trace_id"] == ctx.trace_id
        assert doc["span_id"]
        assert doc["endpoint"] == "/v1/run"
        assert doc["status"] == 200
        datetime.fromisoformat(doc["ts"])  # parses
    finally:
        configure_logging(level="WARNING")


def test_human_logging_renders_extras():
    stream = io.StringIO()
    configure_logging(level="DEBUG", json_lines=False, stream=stream)
    try:
        get_logger("jobs").debug("resolved", extra={"key": "abc"})
        line = stream.getvalue()
        assert "repro.jobs" in line and "resolved" in line
        assert "key=abc" in line
    finally:
        configure_logging(level="WARNING")


def test_pool_workers_log_as_the_parent_under_spawn(capfd):
    """A ``--jobs 2`` worker under ``spawn`` starts from a fresh import
    with nothing inherited: the parent's level and format reach it as
    the pool initializer's arguments, not through the environment."""
    previous = multiprocessing.get_start_method()
    multiprocessing.set_start_method("spawn", force=True)
    try:
        code = cli.main(["batch", "EP", "--threads", "1,2", "--policies",
                         "static", "--scale", "0.05", "--jobs", "2",
                         "--no-cache", "--log-level", "DEBUG", "--log-json"])
    finally:
        multiprocessing.set_start_method(previous, force=True)
        configure_logging(level="WARNING")
    assert code == 0
    assert not [name for name in os.environ if name.startswith("REPRO_LOG_")]
    docs = [json.loads(line) for line in capfd.readouterr().err.splitlines()
            if line.startswith("{")]
    worker_lines = [d for d in docs if d["msg"] == "pool job done"]
    assert len(worker_lines) == 2
    for doc in worker_lines:
        assert (doc["level"], doc["logger"]) == ("DEBUG", "repro.jobs")
        assert (doc["workload"], doc["policy"]) == ("EP", "static")


# -- persistent run registry ------------------------------------------

def _record(key: str = "a" * 64, status: str = "computed",
            **overrides) -> RunRecord:
    base = dict(
        key=key, workload="synthetic", policy="static-2", status=status,
        backend="serial", wall_time=0.25,
        started_at="2026-08-07T00:00:00+00:00",
        finished_at="2026-08-07T00:00:01+00:00",
        schema_version=2, host=host_fingerprint(),
        trace_id="t1", trace_path="", error="",
        fdt=[{"kernel": "k", "threads": 4}])
    base.update(overrides)
    return RunRecord(**base)


def test_run_registry_round_trip_survives_restart(tmp_path):
    registry = RunRegistry(tmp_path)
    registry.append(_record())
    registry.append(_record(status="hit", wall_time=0.0))
    # A fresh instance (a new process, as far as the JSONL file is
    # concerned) sees identical rows.
    reopened = RunRegistry(tmp_path)
    rows = reopened.records()
    assert [r.to_dict() for r in rows] == \
        [r.to_dict() for r in registry.records()]
    assert len(rows) == 2
    assert rows[0].fdt == [{"kernel": "k", "threads": 4}]
    assert rows[1].status == "hit"


def test_run_registry_prefix_lookup_and_report(tmp_path):
    registry = RunRegistry(tmp_path)
    key1, key2 = "abc" + "0" * 61, "def" + "0" * 61
    registry.append(_record(key=key1))
    registry.append(_record(key=key2, status="failed", error="boom"))
    registry.append(_record(key=key1, status="hit"))
    assert [r.status for r in registry.lookup("abc")] == ["computed", "hit"]
    assert registry.lookup(key1) == registry.lookup("abc")
    assert registry.lookup("nope") == []
    assert len(registry.lookup("")) == 3
    report = registry.report()
    assert report["rows"] == 3
    assert report["unique_keys"] == 2
    assert report["by_status"] == {"computed": 1, "failed": 1, "hit": 1}
    assert report["hit_rate"] == pytest.approx(0.5)
    assert report["computed_wall_time_total"] == pytest.approx(0.25)


def test_run_registry_skips_torn_lines(tmp_path):
    registry = RunRegistry(tmp_path)
    registry.append(_record())
    with open(registry.path, "a", encoding="utf-8") as handle:
        handle.write('{"key": "torn...')  # crash mid-write
    assert len(RunRegistry(tmp_path).records()) == 1


def test_job_runner_writes_provenance_rows():
    reset_default_registry()
    cache = ResultCache(None)
    spec = _synthetic_spec()
    runner = JobRunner(cache=cache)
    runner.run_one(spec)
    runner.run_one(spec)  # memo hit
    rows = runner.run_registry.records()
    assert [r.status for r in rows] == ["computed", "hit"]
    row = rows[0]
    assert row.key == spec.key()
    assert row.workload == spec.workload.label
    assert row.schema_version == SCHEMA_VERSION
    assert row.host == host_fingerprint()
    # Timestamps are ISO-8601 and ordered.
    assert datetime.fromisoformat(row.started_at) <= \
        datetime.fromisoformat(row.finished_at)
    assert row.fdt and row.fdt[0]["threads"] == 2
    # The registry rides under the cache root, so `repro obs` finds it.
    assert str(runner.run_registry.path).startswith(str(cache.root))
    # And the default-registry instruments moved with it.
    lookups = default_registry()._instruments.get("repro_jobs_cache_total")
    assert lookups.value("hit") == 1
    assert lookups.value("miss") == 1
    resolutions = default_registry()._instruments.get("repro_jobs_resolutions_total")
    assert resolutions.value("computed") == 1
    assert resolutions.value("hit") == 1


def test_fdt_job_records_decision_and_estimates():
    reset_default_registry()
    runner = JobRunner(cache=ResultCache(None))
    spec = _synthetic_spec(iterations=24, policy="fdt")
    runner.run_one(spec)
    (row,) = runner.run_registry.lookup(spec.key())
    assert row.status == "computed"
    assert row.fdt, "FDT decision missing from provenance row"
    decision = row.fdt[0]
    assert decision["threads"] >= 1
    assert "estimates" in decision
    # The decision also published to the shared registry.
    decisions = default_registry()._instruments.get("repro_fdt_decisions_total")
    assert decisions is not None and decisions.value("sat+bat") >= 1
    chosen = default_registry()._instruments.get("repro_fdt_chosen_threads")
    assert chosen is not None and chosen.count >= 1
    assert default_registry()._instruments.get("repro_fdt_p_fdt") is not None


def test_obs_cli_list_show_tail_report(capsys):
    runner = JobRunner(cache=ResultCache(None))
    spec = _synthetic_spec()
    runner.run_one(spec)
    key = spec.key()

    assert cli.main(["obs", "list"]) == 0
    out = capsys.readouterr().out
    assert key[:12] in out and "computed" in out

    assert cli.main(["obs", "show", key[:10]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["key"] == key
    assert doc["status"] == "computed"
    assert doc["resolutions"] == 1
    assert doc["host"] == host_fingerprint()

    # The tail of the registry is ``list --limit N``.
    assert cli.main(["obs", "list", "--limit", "1", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1 and rows[0]["key"] == key

    assert cli.main(["obs", "report", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rows"] == 1
    assert report["by_status"] == {"computed": 1}

    assert cli.main(["obs", "show", "feedbeef"]) == 1
    assert "no run registered" in capsys.readouterr().err


def test_obs_cli_list_filters(capsys, tmp_path):
    registry = RunRegistry(tmp_path)
    registry.append(_record(key="a" * 64))
    registry.append(_record(key="b" * 64, status="failed"))
    assert cli.main(["obs", "list", "--dir", str(tmp_path),
                     "--status", "failed", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["status"] for r in rows] == ["failed"]


def test_obs_cli_list_limit_keeps_the_last_n(capsys, tmp_path):
    """``--limit 0`` keeps no row (``rows[-0:]`` used to keep all of
    them) and a negative limit is a usage error (``-1`` used to drop
    the oldest row)."""
    registry = RunRegistry(tmp_path)
    for key in "abc":
        registry.append(_record(key=key * 64))

    def keys(limit: str) -> list[str]:
        assert cli.main(["obs", "list", "--dir", str(tmp_path), "--json",
                         "--limit", limit]) == 0
        return [row["key"][0] for row in
                json.loads(capsys.readouterr().out)]

    assert keys("2") == ["b", "c"]
    assert keys("5") == ["a", "b", "c"]
    assert keys("0") == []
    assert cli.main(["obs", "list", "--dir", str(tmp_path),
                     "--limit", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--limit" in captured.err


def test_obs_cli_show_refuses_an_ambiguous_prefix(capsys, tmp_path):
    """A prefix that matches two keys, or the empty prefix, names no
    run: exit 1 and list the candidates, as git does for a short hash."""
    registry = RunRegistry(tmp_path)
    first, second = "ab11" + "0" * 60, "ab22" + "0" * 60
    registry.append(_record(key=first))
    registry.append(_record(key=second))
    registry.append(_record(key=first, status="hit"))
    show = ["obs", "show", "--dir", str(tmp_path)]
    for prefix in ("ab", ""):
        assert cli.main([*show, prefix]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert first in captured.err and second in captured.err
    assert cli.main([*show, "ab1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["key"], doc["status"], doc["resolutions"]) == \
        (first, "hit", 2)


# -- satellite: manifest timestamps -----------------------------------

def test_manifest_entries_carry_iso_timestamps():
    runner = JobRunner(cache=None)
    runner.run_one(_synthetic_spec())
    entry = runner.manifest.entries[-1]
    started = datetime.fromisoformat(entry.started_at)
    finished = datetime.fromisoformat(entry.finished_at)
    assert started.tzinfo is not None
    assert started <= finished
    doc = runner.manifest.to_dict()
    assert doc["started_at"] == entry.started_at
    assert doc["finished_at"] == entry.finished_at
    assert doc["entries"][-1]["started_at"] == entry.started_at
    # The counts contract is untouched (CI compares it exactly).
    assert set(doc["counts"]) == {"total", "hits", "computed", "failed",
                                  "timeouts"}


def test_manifest_timestamps_empty_for_unstamped_entries():
    manifest = RunManifest()
    manifest.record(RunRecord(key="k", workload="w", policy="p",
                              status="hit", backend="memo"))
    assert manifest.started_at == ""
    assert manifest.to_dict()["finished_at"] == ""


def test_a_totals_only_manifest_keeps_no_rows_and_the_same_totals():
    rows = [RunRecord(key=k, workload="EP", policy="static-2",
                      status=status, backend="serial", wall_time=wall,
                      started_at=start, finished_at=end)
            for k, status, wall, start, end in (
                ("a", "computed", 0.25, "2026-01-01T00:00:02+00:00",
                 "2026-01-01T00:00:03+00:00"),
                ("b", "hit", 0.0, "", ""),
                ("c", "timeout", 0.5, "2026-01-01T00:00:01+00:00",
                 "2026-01-01T00:00:02+00:00"),
                ("d", "preflight-failed", 0.0, "2026-01-01T00:00:04+00:00",
                 "2026-01-01T00:00:05+00:00"))]
    full, totals = RunManifest(), RunManifest(entries=None)
    for row in rows:
        full.record(row)
        totals.record(row)
    assert totals.entries is None and len(full.entries) == 4
    assert totals.counts == full.counts == {
        "total": 4, "hits": 1, "computed": 1, "failed": 1, "timeouts": 1}
    assert totals.summary() == full.summary()
    assert (totals.started_at, totals.finished_at) == (
        "2026-01-01T00:00:01+00:00", "2026-01-01T00:00:05+00:00")
    assert {**full.to_dict(), "entries": []} == totals.to_dict()


# -- satellite: drain-rate Retry-After --------------------------------

def _pipeline(retry_after: float = 2.5,
              queue_depth: int = 4) -> RequestPipeline:
    config = ServeConfig(retry_after=retry_after, queue_depth=queue_depth)
    return RequestPipeline(config, ServeMetrics(), cache=None)


def test_retry_after_falls_back_to_config_before_observations():
    pipeline = _pipeline(retry_after=2.5)
    assert pipeline.retry_after_seconds() == 2.5


def test_retry_after_derives_from_drain_rate():
    async def scenario():
        pipeline = _pipeline()
        # 8 requests drained in 2s -> 4 rps; backlog of 1 -> 0.25s,
        # clamped up to the 1s floor.
        pipeline._observe_drain(8, 2.0)
        assert pipeline.retry_after_seconds() == RETRY_AFTER_MIN
        # A crawling pipeline clamps at the ceiling.
        crawling = _pipeline()
        crawling._observe_drain(1, 1000.0)
        assert crawling.retry_after_seconds() == RETRY_AFTER_MAX

    asyncio.run(scenario())


def test_retry_after_scales_with_backlog():
    async def scenario():
        pipeline = _pipeline(queue_depth=8)
        pipeline._observe_drain(2, 2.0)  # 1 rps
        baseline = pipeline.retry_after_seconds()
        for i in range(6):
            await pipeline._queue.put(object())
        assert pipeline.retry_after_seconds() > baseline
        assert pipeline.retry_after_seconds() == pytest.approx(7.0)

    asyncio.run(scenario())


def test_drain_rate_is_an_ema_not_last_sample():
    async def scenario():
        pipeline = _pipeline()
        pipeline._observe_drain(10, 1.0)   # 10 rps
        pipeline._observe_drain(1, 1.0)    # momentary 1 rps blip
        # EMA keeps most of the history: 0.25*1 + 0.75*10 = 7.75 rps.
        assert pipeline._drain_rate == pytest.approx(7.75)
        pipeline._observe_drain(0, 1.0)    # ignored
        pipeline._observe_drain(1, 0.0)    # ignored
        assert pipeline._drain_rate == pytest.approx(7.75)

    asyncio.run(scenario())


# -- satellite: loadgen --json counts ---------------------------------

def test_loadgen_report_json_counts():
    report = LoadgenReport(target_rps=10.0, duration=1.0, sent=10,
                           completed=8, errors=2, elapsed=1.25)
    report.status_codes = {"200": 5, "429": 2, "500": 1}
    report.outcomes = {"hit": 3, "coalesced": 1, "computed": 1}
    report.latencies = sorted([0.01] * 8)
    doc = report.to_dict()
    assert doc["hits"] == 4
    assert doc["shed"] == 2
    assert doc["error_5xx"] == 1
    assert doc["elapsed"] == pytest.approx(1.25)
    assert set(doc["latency_ms"]) == {"p50", "p95", "p99"}
    assert doc["completed"] == 8 and doc["errors"] == 2


# -- graceful degradation: unwritable sinks ---------------------------

def _blocked_path(tmp_path):
    """A path whose parent is a *file*, so any mkdir/open fails."""
    blocker = tmp_path / "blocker"
    blocker.write_text("in the way", encoding="utf-8")
    return blocker / "nested"


class _ListHandler(logging.Handler):
    """Collects records directly: the repro root logger does not
    propagate once configure_logging has run, so caplog can't see it."""

    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@pytest.fixture()
def obs_warnings():
    logger = logging.getLogger("repro.obs")
    handler = _ListHandler()
    logger.addHandler(handler)
    previous = logger.level
    logger.setLevel(logging.WARNING)
    yield handler.records
    logger.removeHandler(handler)
    logger.setLevel(previous)


def _sink_owner(sink: str, path):
    """A run registry (rows under ``path``) or a span recorder (sink
    file under ``path``), with a function that writes row ``i`` and one
    that reads every row back."""
    if sink == "runreg":
        registry = RunRegistry(path)
        return (registry, lambda i: registry.append(_record(key=f"{i:064x}")),
                registry.records)
    rec = SpanRecorder()
    rec.set_sink(path / "spans.jsonl")
    return (rec, lambda i: rec.sink.append(Span(
        trace_id="t", span_id=f"{i:016x}", parent_id="", name=f"s{i}",
        start=float(i), end=i + 1.0).to_dict()),
        lambda: read_jsonl(path / "spans.jsonl", span_from_dict))


@pytest.mark.parametrize("sink", ["runreg", "spans"])
def test_unwritable_sink_drops_counts_and_warns_once(sink, tmp_path,
                                                     obs_warnings):
    counter = default_registry().counter(
        "repro_obs_degraded_total",
        "Telemetry writes dropped because a sink is unwritable.",
        label="sink")
    before = counter.value(sink)
    owner, write, read = _sink_owner(sink, _blocked_path(tmp_path))
    write(0)
    write(1)
    assert owner.sink.degraded is True
    assert read() == []
    # Every drop is counted, but the warning fires once per episode.
    assert counter.value(sink) == before + 2
    warnings = [r for r in obs_warnings
                if "sink unwritable" in r.getMessage()]
    assert [r.sink for r in warnings] == [sink]


@pytest.mark.parametrize("sink", ["runreg", "spans"])
def test_concurrent_writers_never_tear_a_line(sink, tmp_path):
    """8 writers x 200 lines through one sink: 1 600 whole lines."""
    threads, per_thread = 8, 200
    _, write, read = _sink_owner(sink, tmp_path)

    def hammer(t: int) -> None:
        for j in range(per_thread):
            write(t * per_thread + j)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(hammer, range(threads), timeout=60))
    finally:
        sys.setswitchinterval(previous)
    path = tmp_path / ("runs.jsonl" if sink == "runreg" else "spans.jsonl")
    assert len(path.read_text(encoding="utf-8").splitlines()) == 1600
    assert len(read()) == 1600


def test_run_registry_recovers_and_rewarns_per_episode(tmp_path, obs_warnings):
    import shutil

    blocker = tmp_path / "blocker"
    blocker.write_text("in the way", encoding="utf-8")
    registry = RunRegistry(blocker / "reg")
    registry.append(_record())
    assert registry.sink.degraded is True
    blocker.unlink()  # the disk came back
    registry.append(_record(status="hit"))
    assert registry.sink.degraded is False
    assert [r.status for r in registry.records()] == ["hit"]
    # A fresh outage warns again: once per episode, not per process.
    shutil.rmtree(blocker)
    blocker.write_text("back in the way", encoding="utf-8")
    registry.append(_record())
    assert registry.sink.degraded is True
    warnings = [r for r in obs_warnings
                if "sink unwritable" in r.getMessage()]
    assert len(warnings) == 2


def test_span_sink_set_sink_resets_the_degraded_episode(tmp_path):
    rec = SpanRecorder()
    rec.set_sink(_blocked_path(tmp_path))
    rec.sink.append(Span(trace_id="t", span_id="s", parent_id="", name="n",
                         start=0.0, end=1.0).to_dict())
    assert rec.sink.degraded is True
    good = tmp_path / "spans.jsonl"
    rec.set_sink(good)
    assert rec.sink.degraded is False
    rec.sink.append(Span(trace_id="t", span_id="s2", parent_id="", name="n2",
                         start=1.0, end=2.0).to_dict())
    assert rec.sink.degraded is False
    assert len(read_jsonl(good, span_from_dict)) == 1
