"""Observability is a pure observer.

Two guarantees from ``docs/obs.md`` are enforced here:

* **Cycle parity** — simulated results are bit-identical with the full
  observability stack active (spans recorded and sinked, DEBUG JSON
  logging, metrics registry) or not.  Obs hooks read host state only.
* **One trace end to end** — a served request produces one trace ID
  that spans serve → jobs → simulation, trace-correlated structured
  log lines, metric increments in ``/metrics``, and a run-registry row
  that ``repro obs show`` can retrieve.
"""

from __future__ import annotations

import http.client
import io
import json

import pytest

from repro import cli
from repro.jobs import JobSpec, PolicySpec, WorkloadRef, app_result_to_dict
from repro.obs import configure_logging, reset_default_registry, span
from repro.obs.runreg import RunRegistry
from repro.serve import ServeConfig, ServerThread
from repro.sim.config import MachineConfig

from tests.test_serve import parse_prometheus


def _synthetic_spec(policy: PolicySpec, iterations: int = 8) -> JobSpec:
    return JobSpec(
        workload=WorkloadRef.synthetic(cs_fraction=0.2, bus_lines=2,
                                       iterations=iterations,
                                       compute_instr=200),
        policy=policy,
        config=MachineConfig.small())


def _synthetic_payload() -> dict:
    return {"synthetic": {"cs_fraction": 0.2, "bus_lines": 2,
                          "iterations": 8, "compute_instr": 200},
            "policy": "static", "threads": 2}


# -- cycle parity -----------------------------------------------------

@pytest.mark.parametrize("policy", [PolicySpec.static(2), PolicySpec.fdt()],
                         ids=["static", "fdt"])
def test_sim_results_bit_identical_with_obs_active(policy, span_sink):
    spec = _synthetic_spec(policy, iterations=16)
    baseline = app_result_to_dict(spec.run())

    # Now the same run with every observer turned all the way up:
    # span recording to a JSONL sink, an enclosing trace, DEBUG JSON
    # logging, and a fresh metrics registry collecting FDT decisions.
    stream = io.StringIO()
    configure_logging(level="DEBUG", json_lines=True, stream=stream)
    reset_default_registry()
    try:
        with span("parity.test", spec=spec.key()):
            loud = app_result_to_dict(spec.run())
    finally:
        configure_logging(level="WARNING")

    assert loud == baseline
    assert span_sink(name="parity.test")
    assert loud["kernel_infos"][0]["result"] == \
        baseline["kernel_infos"][0]["result"]


# -- one trace end to end ---------------------------------------------

def test_served_request_produces_linked_telemetry(span_sink, capsys):
    reset_default_registry()
    stream = io.StringIO()
    configure_logging(level="INFO", json_lines=True, stream=stream)
    try:
        with ServerThread(ServeConfig(port=0)) as handle:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                              timeout=60)
            try:
                conn.request(
                    "POST", "/v1/run",
                    body=json.dumps(_synthetic_payload()).encode(),
                    headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                trace_id = response.getheader("X-Repro-Trace-Id")
                status = response.status
                body = json.loads(response.read())
                conn.request("GET", "/metrics")
                metrics_text = conn.getresponse().read().decode()
            finally:
                conn.close()
    finally:
        configure_logging(level="WARNING")

    assert status == 200
    assert body["status"] == "computed"
    key = body["key"]
    assert trace_id

    # One trace covers the whole funnel: HTTP request, schema parse,
    # cache probe, batch dispatch, jobs resolution, simulation run.
    spans = span_sink(trace_id=trace_id)
    names = {s.name for s in spans}
    assert {"serve.request", "serve.schema", "serve.cache_probe",
            "serve.batch", "jobs.resolve", "sim.run"} <= names
    by_id = {s.span_id: s for s in spans}
    chain = []
    cursor = next(s for s in spans if s.name == "sim.run")
    while cursor is not None:
        chain.append(cursor.name)
        cursor = by_id.get(cursor.parent_id)
    assert chain == ["sim.run", "jobs.resolve", "serve.batch",
                     "serve.request"]
    assert all(s.status == "ok" for s in spans)

    # Structured log lines carry the same trace ID.
    request_logs = [json.loads(line) for line in
                    stream.getvalue().splitlines()
                    if '"msg": "request"' in line]
    mine = [doc for doc in request_logs if doc.get("key") == key]
    assert mine, "no structured log line for the served request"
    assert mine[0]["trace_id"] == trace_id
    assert mine[0]["logger"] == "repro.serve"
    assert mine[0]["endpoint"] == "/v1/run"
    assert mine[0]["status"] == 200

    # /metrics reconciles: the serve panel and the instruments the
    # jobs layer registered into the shared default registry.
    samples = parse_prometheus(metrics_text)
    assert samples['repro_serve_requests_total{endpoint="/v1/run"}'] == 1
    assert samples["repro_serve_cache_misses_total"] == 1
    assert samples['repro_jobs_cache_total{outcome="miss"}'] == 1
    assert samples['repro_jobs_resolutions_total{status="computed"}'] == 1
    assert samples["repro_serve_batch_seconds_count"] == 1

    # The run registry holds a provenance row linked to the same trace.
    (row,) = RunRegistry().lookup(key)
    assert row.status == "computed"
    assert row.trace_id == trace_id
    assert row.wall_time > 0

    # And `repro obs show <key>` surfaces it.
    assert cli.main(["obs", "show", key]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["key"] == key
    assert doc["trace_id"] == trace_id
