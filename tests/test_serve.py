"""Tests for :mod:`repro.serve`: metrics, HTTP framing, the request
pipeline (coalescing, admission control, timeouts), the server
endpoints, graceful drain, the load generator, and the jobs-layer
satellites (``get_or_none``, timeout manifest status, ``resolve``)."""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import re
import signal
import socket
import threading
import time
from dataclasses import replace

import pytest

from repro.errors import (
    JobError,
    ReproError,
    ServeClientError,
    ServeError,
    ServeRequestError,
)
from repro.faults import FaultPlan, FaultRule, injected
from repro.jobs import (
    JobRunner,
    JobSpec,
    PolicySpec,
    Resolution,
    ResultCache,
    WorkloadRef,
    app_result_to_dict,
)
from repro.jobs.manifest import RunManifest
from repro.obs.runreg import RunRecord
from repro.serve import (
    ExperimentServer,
    AsyncServeClient,
    RequestPipeline,
    ServeClient,
    ServeConfig,
    ServeMetrics,
    ServerThread,
    run_loadgen_blocking,
)
from repro.serve import pipeline as pipeline_mod
from repro.serve import schema
from repro.serve import server as server_mod
from repro.serve.http import (
    MAX_HEADER_BYTES,
    HttpProtocolError,
    HttpRequest,
    HttpResponse,
    json_body,
    read_request,
    read_response,
    read_response_blocking,
    request_bytes,
    response_bytes,
)
from repro.obs.registry import Counter, Histogram
from repro.jobs.resolution import (
    STATUS_COALESCED,
    STATUS_COMPUTED,
    STATUS_HIT,
    STATUS_SHED,
    STATUS_TIMEOUT,
)
from repro.sim.config import MachineConfig
from tests.programs import metrics_text, served


def _synthetic_spec(iterations: int = 8, threads: int = 2) -> JobSpec:
    return JobSpec(
        workload=WorkloadRef.synthetic(cs_fraction=0.2, bus_lines=2,
                                       iterations=iterations,
                                       compute_instr=200),
        policy=PolicySpec.static(threads),
        config=MachineConfig.small())


def _synthetic_payload(iterations: int = 8, threads: int = 2) -> dict:
    return {"synthetic": {"cs_fraction": 0.2, "bus_lines": 2,
                          "iterations": iterations, "compute_instr": 200},
            "policy": "static", "threads": threads}


class _StubRunner:
    """Pipeline-facing runner double: counts resolve() calls.

    ``gate``/``started`` let a test hold a batch inside the executor
    thread while it probes the pipeline's in-flight state.
    """

    def __init__(self, gate: threading.Event | None = None,
                 started: threading.Event | None = None,
                 result: dict | None = None) -> None:
        self.gate = gate
        self.started = started
        self.result = result if result is not None else {"stub": True}
        self.batches: list[list[str]] = []

    def resolve(self, specs):
        self.batches.append([spec.key() for spec in specs])
        if self.started is not None:
            self.started.set()
        if self.gate is not None:
            assert self.gate.wait(10.0)
        return [Resolution(key=spec.key(), status="computed",
                              backend="serial", result=dict(self.result))
                for spec in specs]


def _gated_factory(gate: threading.Event, started: threading.Event,
                   manifest=None):
    """Real JobRunner whose resolve() blocks on ``gate`` (drain tests)."""

    def factory() -> JobRunner:
        runner = JobRunner(cache=ResultCache(None), manifest=manifest)
        inner = runner.resolve

        def gated(specs):
            started.set()
            assert gate.wait(10.0)
            return inner(specs)

        runner.resolve = gated  # type: ignore[method-assign]
        return runner

    return factory


# -- metrics ----------------------------------------------------------

_PROM_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (\+Inf|-?[0-9][0-9.e+-]*)$")


def parse_prometheus(text: str) -> dict[str, float]:
    """Strict parse of a text exposition; asserts on malformed lines."""
    assert text.endswith("\n")
    samples: dict[str, float] = {}
    for line in text.strip("\n").split("\n"):
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        match = _PROM_SAMPLE.match(line)
        assert match is not None, f"malformed exposition line: {line!r}"
        value = match.group(3)
        samples[match.group(1) + (match.group(2) or "")] = (
            float("inf") if value == "+Inf" else float(value))
    return samples


def test_metrics_render_parses_as_prometheus_text():
    metrics = ServeMetrics()
    metrics.requests.inc("/v1/run")
    metrics.requests.inc("/v1/run")
    metrics.responses.inc("200")
    metrics.hits.inc()
    metrics.in_flight.inc()
    metrics.latency.observe(0.003)
    metrics.latency.observe(7.0)
    samples = parse_prometheus(metrics.render())
    assert samples['repro_serve_requests_total{endpoint="/v1/run"}'] == 2
    assert samples['repro_serve_responses_total{code="200"}'] == 1
    assert samples["repro_serve_cache_hits_total"] == 1
    assert samples["repro_serve_in_flight"] == 1
    assert samples["repro_serve_request_seconds_count"] == 2
    assert samples['repro_serve_request_seconds_bucket{le="+Inf"}'] == 2
    # Cumulative buckets: 0.003 lands in le=0.005 and everything above;
    # 7.0 only joins at le=10.
    assert samples['repro_serve_request_seconds_bucket{le="0.005"}'] == 1
    assert samples['repro_serve_request_seconds_bucket{le="5"}'] == 1
    assert samples['repro_serve_request_seconds_bucket{le="10"}'] == 2
    assert samples["repro_serve_request_seconds_sum"] == pytest.approx(7.003)


def test_unknown_paths_share_one_endpoint_label():
    """A request path used to become a label value: every distinct
    unknown path added a ``repro_serve_requests_total`` sample, without
    bound."""
    async def go():
        server = ExperimentServer(ServeConfig(no_cache=True))
        for path in ("/nope", "/admin", "/v1/run/extra"):
            status, *_ = await server._respond(HttpRequest("GET", path))
            assert status == 404
        return server.metrics.render()

    samples = parse_prometheus(asyncio.run(go()))
    assert {name: value for name, value in samples.items()
            if name.startswith("repro_serve_requests_total")} == {
        'repro_serve_requests_total{endpoint="other"}': 3}


def test_metrics_report_the_process_peak_resident_set():
    """``/metrics`` carries what the benchmark calls ``peak_rss_mb``,
    read when the page is rendered."""
    import resource
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    text = ServeMetrics().render()
    assert "# TYPE repro_process_max_resident_bytes gauge" in text
    value = parse_prometheus(text)["repro_process_max_resident_bytes"]
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    assert 0 < before <= value <= after


def test_histogram_buckets_are_cumulative():
    hist = Histogram("h", "test", buckets=(1.0, 2.0))
    for value in (0.5, 1.5, 99.0):
        hist.observe(value)
    samples = parse_prometheus("\n".join(hist.render()) + "\n")
    assert samples['h_bucket{le="1"}'] == 1
    assert samples['h_bucket{le="2"}'] == 2
    assert samples['h_bucket{le="+Inf"}'] == 3
    assert samples["h_count"] == 3


def test_labeled_counter_escapes_label_values():
    counter = Counter("c", "test", label="path")
    counter.inc('we"ird\npath')
    rendered = "\n".join(counter.render())
    assert r'c{path="we\"ird\npath"} 1' in rendered


# -- http framing -----------------------------------------------------

def _reader_for(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def test_http_request_round_trip():
    async def go():
        wire = request_bytes("POST", "/v1/run", host="h:1",
                             body=b'{"workload": "EP"}')
        request = await read_request(_reader_for(wire))
        assert request is not None
        assert request.method == "POST"
        assert request.path == "/v1/run"
        assert request.keep_alive
        assert request.json() == {"workload": "EP"}
        assert await read_request(_reader_for(b"")) is None  # clean EOF

    asyncio.run(go())


def test_http_response_round_trip_and_errors():
    async def go():
        wire = response_bytes(429, b'{"error": "shed"}',
                              extra_headers={"Retry-After": "1"},
                              keep_alive=False)
        response = await read_response(_reader_for(wire))
        assert response.status == 429
        assert response.headers["retry-after"] == "1"
        assert response.headers["connection"] == "close"
        assert json.loads(response.body) == {"error": "shed"}
        with pytest.raises(HttpProtocolError, match="request line"):
            await read_request(_reader_for(b"nonsense\r\n\r\n"))
        with pytest.raises(HttpProtocolError, match="Content-Length"):
            await read_request(_reader_for(
                b"GET / HTTP/1.1\r\nContent-Length: frog\r\n\r\n"))

    asyncio.run(go())


_WIRE = request_bytes("POST", "/v1/run", host="h:1", body=b'{"workload": "EP"}')
#: A head of short lines, larger than the bound in total.
_LONG_HEAD = (b"GET / HTTP/1.1\r\n"
              + b"X-Pad: 0123456789abcdef\r\n" * (MAX_HEADER_BYTES // 20)
              + b"\r\n")


def test_http_head_tolerates_leading_blank_lines():
    async def go():
        for lead in (b"\r\n", b"\r\n\r\n", b"\r\n" * 5):
            request = await read_request(_reader_for(lead + _WIRE))
            assert request is not None and request.json() == {"workload": "EP"}

    asyncio.run(go())


def test_http_head_split_across_chunks_parses():
    async def go():
        reader = asyncio.StreamReader()
        pending = asyncio.create_task(read_request(reader))
        for at in range(0, len(_WIRE), 7):
            reader.feed_data(_WIRE[at:at + 7])
            await asyncio.sleep(0)
        request = await pending
        assert request is not None
        assert request.headers["host"] == "h:1"
        assert request.json() == {"workload": "EP"}

    asyncio.run(go())


def test_http_head_eof_and_size_bounds():
    async def go():
        assert await read_request(_reader_for(b"\r\n\r\n\r\n")) is None
        with pytest.raises(HttpProtocolError, match="mid-header"):
            await read_request(_reader_for(_WIRE[:20]))
        with pytest.raises(HttpProtocolError, match="too large"):
            await read_request(_reader_for(_LONG_HEAD))
        # Past the stream's own limit or only past the bound: both refused.
        roomy = asyncio.StreamReader(limit=4 * MAX_HEADER_BYTES)
        roomy.feed_data(_LONG_HEAD)
        roomy.feed_eof()
        with pytest.raises(HttpProtocolError, match="too large"):
            await read_request(roomy)

    asyncio.run(go())


def _send_raw(port: int, data: bytes, replies: int = 1
              ) -> list[HttpResponse]:
    """Write ``data`` in one call; read ``replies`` responses back."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(data)
        with sock.makefile("rb") as stream:
            return [read_response_blocking(stream) for _ in range(replies)]


def test_server_answers_pipelined_requests_in_order():
    with ServerThread(ServeConfig(port=0)) as handle:
        health, missing = _send_raw(
            handle.port,
            request_bytes("GET", "/healthz", host="h")
            + request_bytes("GET", "/v1/nonsense", host="h"), replies=2)
    assert health.status == 200 and json.loads(health.body)["status"] == "ok"
    assert missing.status == 404 and "nonsense" in json.loads(missing.body)["error"]


@pytest.mark.parametrize("head", [
    b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n",
    _LONG_HEAD,
], ids=["one-long-line", "many-short-lines"])
def test_server_answers_an_oversized_head_with_400(head):
    """A line past the stream limit used to drop the socket unanswered."""
    with ServerThread(ServeConfig(port=0)) as handle:
        (refused,) = _send_raw(handle.port, head)
        assert refused.status == 400
        assert "too large" in json.loads(refused.body)["error"]
        assert refused.headers["connection"] == "close"
        (served,) = _send_raw(handle.port,
                              request_bytes("GET", "/healthz", host="h"))
    assert served.status == 200


@pytest.mark.parametrize(("version", "connection", "kept"), [
    ("HTTP/1.1", None, True), ("HTTP/1.1", "close", False),
    ("HTTP/1.1", "Keep-Alive, Upgrade", True), ("HTTP/1.0", None, False),
    ("HTTP/1.0", "keep-alive", True), ("HTTP/1.0", "Keep-Alive", True),
])
def test_keep_alive_follows_the_request_version(version, connection, kept):
    """An HTTP/1.0 request without ``Connection: keep-alive`` used to be
    kept open (RFC 9112 9.3: it closes)."""
    head = f"GET /healthz {version}\r\nHost: h\r\n" + (
        f"Connection: {connection}\r\n" if connection else "")

    async def go():
        return await read_request(_reader_for((head + "\r\n").encode()))

    request = asyncio.run(go())
    assert request is not None and request.version == version
    assert request.keep_alive is kept


@pytest.mark.parametrize("connection", [None, "keep-alive"])
def test_server_closes_an_http_1_0_connection_unless_asked_to_keep_it(
        connection):
    asked = f"Connection: {connection}\r\n" if connection else ""
    wire = f"GET /healthz HTTP/1.0\r\nHost: h\r\n{asked}\r\n".encode()
    with ServerThread(ServeConfig(port=0)) as handle, \
            socket.create_connection(("127.0.0.1", handle.port),
                                     timeout=5) as sock, \
            sock.makefile("rb") as stream:
        sock.sendall(wire)
        first = read_response_blocking(stream)
        assert first.status == 200
        if connection is None:
            assert first.headers["connection"] == "close"
            assert stream.read() == b""  # the server hung up
        else:
            assert first.headers["connection"] == "keep-alive"
            sock.sendall(wire)  # the same socket answers again
            assert read_response_blocking(stream).status == 200


def test_a_chunked_request_gets_one_501_and_a_closed_connection():
    """A chunked body used to be read as empty and its chunk-size line
    as a second request: one request, two 400 replies."""
    body = json.dumps({"workload": "EP", "scale": 0.05}).encode()
    wire = (b"POST /v1/run HTTP/1.1\r\nHost: h\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + f"{len(body):x}\r\n".encode() + body + b"\r\n0\r\n\r\n")
    with ServerThread(ServeConfig(port=0)) as handle, \
            socket.create_connection(("127.0.0.1", handle.port),
                                     timeout=5) as sock, \
            sock.makefile("rb") as stream:
        sock.sendall(wire)
        refused = read_response_blocking(stream)
        assert stream.read() == b""  # no second reply: the server hung up
    assert refused.status == 501
    assert refused.headers["connection"] == "close"
    assert "Transfer-Encoding" in json.loads(refused.body)["error"]
    assert response_bytes(501, b"").startswith(b"HTTP/1.1 501 Not Implemented")


def test_server_answers_a_static_team_larger_than_the_machine_with_400():
    """A team of 40 on 32 slots used to run clamped to 32 threads under
    a key of its own: two keys for one experiment."""
    body = json.dumps({"workload": "EP", "scale": 0.05, "policy": "static",
                       "threads": 40}).encode()
    with ServerThread(ServeConfig(port=0)) as handle:
        (refused,) = _send_raw(handle.port, request_bytes(
            "POST", "/v1/run", host="h", body=body))
    assert refused.status == 400
    assert "32 hardware thread slots" in json.loads(refused.body)["error"]


# -- the two clients, one dialect ---------------------------------------

class _CannedServer:
    """A raw TCP listener: records each request's bytes and answers it
    with the next canned reply, closing the connection after one that
    says so (``close=True``)."""

    def __init__(self, replies: list[tuple[bytes, bool]]) -> None:
        self._replies = list(replies)
        self.requests: list[bytes] = []
        self.connections = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(5)  # a failing test must not hang accept
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def __enter__(self) -> "_CannedServer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._listener.close()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()

    def _serve(self) -> None:
        while self._replies:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # closed or timed out with replies left over
            self.connections += 1
            with conn:
                conn.settimeout(10)
                while self._replies and self._answer_one(conn):
                    pass

    def _answer_one(self, conn: socket.socket) -> bool:
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = conn.recv(65536)
            if not chunk:
                return False  # peer closed between requests
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
        while len(body) < length:
            body += conn.recv(65536)
        self.requests.append(data)
        reply, close = self._replies.pop(0)
        conn.sendall(reply)
        return not close


_CANNED = [
    (response_bytes(200, json_body({"key": "k", "status": "hit"})),
     (200, {"key": "k", "status": "hit"})),
    (response_bytes(404, json_body({"error": "no cached result"})),
     (404, {"error": "no cached result"})),
    (response_bytes(429, json_body({"error": "shed"}),
                    extra_headers={"Retry-After": "2.5"}),
     (429, {"error": "shed"})),
    (response_bytes(200, b"<html>", content_type="text/html"),
     (200, {"raw": "<html>"})),
]


@pytest.mark.parametrize("reply,expected", _CANNED,
                         ids=["200", "404", "429", "non-json"])
def test_blocking_and_async_clients_speak_one_dialect(reply, expected):
    with _CannedServer([(reply, False), (reply, True)]) as server:
        with ServeClient(port=server.port) as client:
            blocking = client.request("POST", "/v1/run", {})
        asynced = asyncio.run(AsyncServeClient(port=server.port).request(
            "POST", "/v1/run", {}))
    assert blocking == asynced == expected
    kept, closing = server.requests
    assert kept.replace(b"keep-alive", b"close") == closing
    assert kept == request_bytes("POST", "/v1/run",
                                 host=f"127.0.0.1:{server.port}", body=b"{}")
    # An empty-dict payload is still a JSON body and is labelled as one.
    assert b"Content-Type: application/json" in kept


def test_blocking_client_reconnects_after_a_close_reply_or_a_cut_one():
    ok = response_bytes(200, json_body({"status": "ok"}))
    closing = response_bytes(200, json_body({"n": 1}), keep_alive=False)
    with _CannedServer([(closing, True), (ok[:-5], True), (ok, False),
                        (response_bytes(503, b"down"), False)]) as server:
        with ServeClient(port=server.port) as client:
            assert client.request("GET", "/healthz") == (200, {"n": 1})
            # ``Connection: close`` was honoured: a new socket, on which
            # the server hangs up mid-body.
            with pytest.raises(ServeClientError, match="mid-body") as err:
                client.healthz()
            assert err.value.status == 0 and server.connections == 2
            assert client.healthz() == {"status": "ok"}
            assert server.connections == 3
            # The kept connection is reused for the next request.
            assert client.request("GET", "/metrics")[0] == 503
            assert server.connections == 3


# -- request canonicalization -----------------------------------------

def test_schema_canonicalizes_equivalent_requests_to_one_key():
    base = schema.parse_run_request(
        {"workload": "PageMine", "policy": "static", "threads": 4})
    spelled = schema.parse_run_request(
        {"workload": "pagemine", "scale": 1.0, "threads": 4,
         "policy": "static", "machine": {}})
    assert base.key() == spelled.key()
    different = schema.parse_run_request(
        {"workload": "PageMine", "policy": "static", "threads": 8})
    assert different.key() != base.key()


def test_request_body_is_the_inverse_of_parse_run_request():
    half = MachineConfig.baseline_with(cores=8, bandwidth=0.5, smt=2)
    for spec in (
            JobSpec(WorkloadRef("PageMine", scale=0.1), PolicySpec.fdt(),
                    MachineConfig.asplos08_baseline()),
            JobSpec(WorkloadRef("EP", scale=0.25), PolicySpec.static(4), half),
            JobSpec(WorkloadRef.synthetic(cs_fraction=0.2, iterations=8),
                    PolicySpec.static(), half)):
        assert schema.parse_run_request(schema.request_body(spec)) == spec
    assert schema.request_body(
        JobSpec(WorkloadRef("EP"), PolicySpec.fdt(),
                MachineConfig.baseline_with(bandwidth=0.5))
    )["machine"] == {"bandwidth": 0.5}
    # Anything the three overrides cannot say is refused, not re-run on
    # another machine.
    with pytest.raises(ServeRequestError, match="cannot be written"):
        schema.request_body(JobSpec(WorkloadRef("EP"), PolicySpec.fdt(),
                                    MachineConfig.small()))


def test_schema_rejects_malformed_requests():
    for body, pattern in [
        ({}, "exactly one"),
        ({"workload": "EP", "synthetic": {}}, "exactly one"),
        ({"workload": "NoSuchWorkload"}, "NoSuchWorkload"),
        ({"workload": "EP", "policy": "nonsense"}, "policy"),
        ({"workload": "EP", "policy": "fdt", "threads": 4}, "static"),
        ({"workload": "EP", "threads": 0}, "threads"),
        ({"workload": "EP", "machine": {"warp": 9}}, "machine knob"),
        ({"synthetic": {"frobnicate": 1}}, "synthetic knob"),
        ({"workload": "EP", "scale": "big"}, "number"),
    ]:
        with pytest.raises(ReproError, match=pattern):
            schema.parse_run_request(body)
    with pytest.raises(ServeRequestError, match="40 threads exceeds"):
        schema.parse_run_request({"workload": "EP", "threads": 40})
    assert schema.parse_run_request(
        {"workload": "EP", "threads": 40,
         "machine": {"smt": 2}}).policy.threads == 40
    with pytest.raises(ReproError, match="policy"):
        schema.parse_fdt_request({"workload": "EP", "policy": "static"})
    with pytest.raises(ReproError, match="non-empty"):
        schema.parse_sweep_request({"workload": "EP", "threads": []})


@pytest.mark.parametrize("knob, value", [
    ("cores", 0), ("cores", True), ("cores", 2.7), ("cores", "8"),
    ("smt", 0), ("smt", 1.5), ("smt", False),
    ("bandwidth", 0), ("bandwidth", -1.0), ("bandwidth", True),
    ("bandwidth", "2"),
])
def test_schema_answers_400_for_a_bad_machine_override(knob, value):
    """Out of range used to escape as ConfigError (HTTP 500); bools and
    fractional counts used to build a 1- or 2-core machine silently."""
    body = {"workload": "EP", "machine": {knob: value}}
    for parse in (schema.parse_run_request, schema.parse_fdt_request,
                  schema.parse_sweep_request):
        with pytest.raises(ServeRequestError, match=knob):
            parse(body)
    config = schema.parse_run_request(
        {"workload": "EP",
         "machine": {"cores": 8, "bandwidth": 2, "smt": 2}}).config
    assert config == replace(MachineConfig.asplos08_baseline(), num_cores=8,
                             smt_threads=2).with_bandwidth(2.0)


@pytest.mark.parametrize("knob, value", [
    ("bus_lines", 2.7), ("bus_lines", 2.0), ("bus_lines", True),
    ("iterations", 8.5), ("iterations", False), ("compute_instr", 200.0),
])
def test_schema_answers_400_for_a_non_integer_synthetic_count(knob, value):
    """``int()`` used to truncate: 2.7 bus lines ran, and were cached
    under the same key, as 2."""
    with pytest.raises(ServeRequestError, match=knob):
        schema.parse_run_request({"synthetic": {knob: value}})


@pytest.mark.parametrize("knob, value", [
    ("cs_fraction", 1.0), ("cs_fraction", 2.5),
])
def test_schema_answers_400_for_an_impossible_synthetic_knob(knob, value):
    """The kernel refuses these; the request used to get a content key,
    be dispatched and come back 500."""
    with pytest.raises(ServeRequestError, match=knob):
        schema.parse_run_request({"synthetic": {knob: value}})


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0, -0.0, -1])
def test_schema_answers_400_for_a_scale_that_is_not_finite_and_positive(
        scale):
    """NaN was hashed, retried twice as a transient failure and answered
    500; 0, -0.0 and -1 ran the smallest input under three keys."""
    for parse in (schema.parse_run_request, schema.parse_fdt_request,
                  schema.parse_sweep_request):
        with pytest.raises(ServeRequestError, match="scale"):
            parse({"workload": "EP", "scale": scale})
    with pytest.raises(ServeRequestError, match="scale"):
        schema.parse_run_request({"synthetic": {}, "scale": scale})


def test_schema_sweep_clamps_and_sorts_thread_counts():
    _, counts, config = schema.parse_sweep_request(
        {"workload": "EP", "threads": [8, 2, 2, 4096, 1]})
    assert counts == [1, 2, 8]
    assert all(t <= config.num_cores for t in counts)


def test_serve_config_validates_knobs():
    for port in (-1, 70000):
        with pytest.raises(ServeError, match="port"):
            ServeConfig(port=port)
    with pytest.raises(ServeError, match="queue_depth"):
        ServeConfig(queue_depth=0)
    with pytest.raises(ServeError, match="workers"):
        ServeConfig(workers=0)
    with pytest.raises(ServeError, match="breaker_threshold"):
        ServeConfig(breaker_threshold=0)


# -- pipeline: coalescing, admission control, timeouts ----------------

def _pipeline(config: ServeConfig, runner,
              cache: ResultCache | None = None):
    metrics = ServeMetrics()
    pipeline = RequestPipeline(config, metrics, cache,
                               runner_factory=lambda: runner)
    return pipeline, metrics


def test_identical_concurrent_requests_coalesce_to_one_simulation():
    gate, started = threading.Event(), threading.Event()
    runner = _StubRunner(gate=gate, started=started)
    pipeline, metrics = _pipeline(ServeConfig(workers=1), runner)
    spec = _synthetic_spec()
    fanout = 8

    async def go():
        await pipeline.start()
        tasks = [asyncio.create_task(pipeline.resolve(spec))
                 for _ in range(fanout)]
        while not started.is_set():  # leader reached the executor
            await asyncio.sleep(0.005)
        gate.set()
        resolutions = await asyncio.gather(*tasks)
        await pipeline.drain()
        return resolutions

    resolutions = asyncio.run(go())
    # Exactly one simulation ran, for exactly one spec.
    assert runner.batches == [[spec.key()]]
    # Every caller got the same answer; one led, the rest coalesced.
    statuses = sorted(r.status for r in resolutions)
    assert statuses == [STATUS_COALESCED] * (fanout - 1) + [STATUS_COMPUTED]
    assert len({json.dumps(r.result, sort_keys=True)
                for r in resolutions}) == 1
    assert metrics.misses.value() == 1
    assert metrics.coalesced.value() == fanout - 1
    assert metrics.shed.value() == 0


def test_full_queue_sheds_instead_of_queuing():
    gate, started = threading.Event(), threading.Event()
    runner = _StubRunner(gate=gate, started=started)
    config = ServeConfig(workers=1, queue_depth=1, max_batch=1,
                         retry_after=2.5)
    pipeline, metrics = _pipeline(config, runner)

    async def go():
        await pipeline.start()
        first = asyncio.create_task(pipeline.resolve(_synthetic_spec(8)))
        while not started.is_set():  # worker is busy with the first
            await asyncio.sleep(0.005)
        second = asyncio.create_task(pipeline.resolve(_synthetic_spec(9)))
        await asyncio.sleep(0.02)  # let it occupy the depth-1 queue
        shed = await pipeline.resolve(_synthetic_spec(10))
        gate.set()
        served = await asyncio.gather(first, second)
        await pipeline.drain()
        return shed, served

    shed, served = asyncio.run(go())
    assert shed.status == STATUS_SHED
    assert shed.result is None
    assert shed.retry_after == 2.5
    assert [r.status for r in served] == [STATUS_COMPUTED, STATUS_COMPUTED]
    assert metrics.shed.value() == 1
    assert len(runner.batches) == 2  # the shed request never ran


def test_cache_fast_path_answers_without_touching_the_runner():
    spec = _synthetic_spec()
    cache = ResultCache(None)  # conftest points this at tmp_path
    stored = app_result_to_dict(spec.run())
    cache.put(spec.key(), spec.to_dict(), stored)
    runner = _StubRunner()
    pipeline, metrics = _pipeline(ServeConfig(), runner, cache=cache)

    async def go():
        await pipeline.start()
        resolution = await pipeline.resolve(spec)
        await pipeline.drain()
        return resolution

    resolution = asyncio.run(go())
    assert resolution.status == STATUS_HIT
    assert resolution.result == stored
    assert runner.batches == []  # no worker involvement at all
    assert metrics.hits.value() == 1
    assert metrics.misses.value() == 0


def test_request_timeout_resolves_to_timeout_status():
    gate = threading.Event()
    runner = _StubRunner(gate=gate)
    config = ServeConfig(workers=1, request_timeout=0.05)
    pipeline, metrics = _pipeline(config, runner)

    async def go():
        await pipeline.start()
        resolution = await pipeline.resolve(_synthetic_spec())
        gate.set()  # release the abandoned batch so drain can join it
        await pipeline.drain()
        return resolution

    resolution = asyncio.run(go())
    assert resolution.status == STATUS_TIMEOUT
    assert resolution.result is None
    assert "0.05" in resolution.error
    assert metrics.timeouts.value() == 1


# -- the validated-hit tier ---------------------------------------------

def _probe_tiers(span_sink) -> list[str]:
    return [s.attrs["tier"] for s in span_sink(name="serve.cache_probe")]


def _warm_pipeline(count: int = 1):
    """A pipeline over a real runner and a cache holding ``count`` specs."""
    cache = ResultCache(None)  # conftest points this at tmp_path
    specs = [_synthetic_spec(iterations=8 + i) for i in range(count)]
    stored = app_result_to_dict(specs[0].run())
    for spec in specs:
        cache.put(spec.key(), spec.to_dict(), stored)
    return RequestPipeline(ServeConfig(), ServeMetrics(), cache), specs


def _resolve_each(pipeline: RequestPipeline, specs) -> list[Resolution]:
    async def go():
        await pipeline.start()
        try:
            return [await pipeline.resolve(spec) for spec in specs]
        finally:
            await pipeline.drain()

    return asyncio.run(go())


@pytest.mark.parametrize("kind", ["corrupt", "torn", "io-error"])
def test_a_probe_that_fails_validation_is_never_remembered(kind, span_sink):
    pipeline, (spec,) = _warm_pipeline()
    plan = FaultPlan(seed=1, rules=(
        FaultRule(site="cache.read", kind=kind, max_fires=1),))
    with injected(plan) as injector:
        (faulted,) = _resolve_each(pipeline, [spec])
        assert injector.firing_count() == 1
        # Answered by the workers (the batch path read the intact file),
        # and nothing was kept from the bad read.
        assert faulted.ok and faulted.backend != "pipeline"
        assert pipeline._hot == {} and pipeline.replies(faulted) is None
        disk, memory = _resolve_each(pipeline, [spec, spec])
    assert _probe_tiers(span_sink) == ["miss", "disk", "memory"]
    assert memory is disk and list(pipeline._hot) == [spec.key()]
    assert (disk.status, disk.backend) == (STATUS_HIT, "cache")
    assert disk.result == faulted.result


def test_tier_is_bounded_and_evicts_oldest_first(monkeypatch, span_sink):
    monkeypatch.setattr(pipeline_mod, "HOT_CAPACITY", 3)
    pipeline, specs = _warm_pipeline(count=4)
    first = _resolve_each(pipeline, specs)
    assert list(pipeline._hot) == [s.key() for s in specs[1:]]
    # The evicted key is a disk hit again (and evicts the next oldest).
    (again,) = _resolve_each(pipeline, [specs[0]])
    assert again == first[0] and again is not first[0]
    assert _probe_tiers(span_sink) == ["disk"] * 5
    assert list(pipeline._hot) == [s.key() for s in (*specs[2:], specs[0])]
    assert pipeline.metrics.hits.value() == 5


def test_no_cache_builds_no_tier(span_sink):
    pipeline, metrics = _pipeline(ServeConfig(no_cache=True), _StubRunner())
    spec = _synthetic_spec()
    resolutions = _resolve_each(pipeline, [spec, spec])
    assert [r.status for r in resolutions] == [STATUS_COMPUTED] * 2
    assert pipeline.probe(spec.key()) is None
    assert pipeline._hot == {} and pipeline.replies(resolutions[0]) is None
    assert _probe_tiers(span_sink) == [] and metrics.hits.value() == 0


def _raw(port: int, method: str, path: str,
         payload: dict | bytes | None = None) -> tuple[int, bytes]:
    """One exchange through stdlib ``http.client``: the body as sent
    (a dict is sent as ``json.dumps`` spells it, bytes as they are)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path,
                     body=(json.dumps(payload) if isinstance(payload, dict)
                           else payload))
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def test_memory_served_replies_are_byte_identical_to_disk_served(tmp_path,
                                                                span_sink):
    config = ServeConfig(port=0, cache_dir=str(tmp_path / "c"))
    bodies = [_synthetic_payload(iterations=n) for n in (8, 9, 10)]
    fdt_body = {"synthetic": bodies[1]["synthetic"]}
    with ServerThread(config) as handle:
        _raw(handle.port, "POST", "/v1/run", bodies[0])
        _raw(handle.port, "POST", "/v1/fdt", fdt_body)
        key = json.loads(_raw(handle.port, "POST", "/v1/run",
                              bodies[2])[1])["key"]
        asks = [("POST", "/v1/run", bodies[0]),
                ("POST", "/v1/fdt", fdt_body),
                ("GET", f"/v1/result/{key}", None)]
        disk = [_raw(handle.port, *ask) for ask in asks]
        memory = [_raw(handle.port, *ask) for ask in asks]
        # A remembered key outlives its entry file.
        ResultCache(config.cache_dir).path_for(key).rename(
            tmp_path / "moved")
        orphaned = _raw(handle.port, *asks[2])
        (tmp_path / "moved").rename(
            ResultCache(config.cache_dir).path_for(key))
    with ServerThread(config) as handle:  # same cache dir, empty tier
        restarted = [_raw(handle.port, *ask) for ask in asks]
        again = [_raw(handle.port, *ask) for ask in asks]
    assert disk == memory == restarted == again and orphaned == disk[2]
    for (status, body), endpoint in zip(disk, ("run", "fdt", "result")):
        reply = json.loads(body)
        assert status == 200 and reply["status"] == "hit", endpoint
        assert body == json_body(reply)
    # A repeated /v1/run or /v1/fdt body is answered from its bytes.
    assert _probe_tiers(span_sink) == (
        ["miss"] * 3 + ["disk"] * 3 + ["body", "body", "memory", "memory"]
        + ["disk"] * 3 + ["body", "body", "memory"])


@pytest.fixture
def parse_counts(monkeypatch) -> dict[str, int]:
    """Calls of the schema's two parsers and of ``JobSpec.key``."""
    counts = dict.fromkeys(
        ("parse_run_request", "parse_fdt_request", "key"), 0)

    def counting(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counting(schema, "parse_run_request")
    counting(schema, "parse_fdt_request")
    counting(JobSpec, "key")
    return counts


def _hits(port: int) -> float:
    return parse_prometheus(_raw(port, "GET", "/metrics")[1].decode())[
        "repro_serve_cache_hits_total"]


def test_a_repeated_body_is_answered_from_its_bytes(tmp_path, parse_counts,
                                                    span_sink):
    payload = {"synthetic": _synthetic_payload()["synthetic"],
               "policy": "fdt"}
    compact = json.dumps(payload).encode()
    spaced = json.dumps(payload, indent=2).encode()  # the same request
    config = ServeConfig(port=0, cache_dir=str(tmp_path / "c"))
    with ServerThread(config) as handle:
        port, pipeline = handle.port, handle.server.pipeline
        computed, disk, memory = [_raw(port, "POST", "/v1/run", body)
                                  for body in (compact, compact, spaced)]
        fdt = [_raw(port, "POST", "/v1/fdt", body)
               for body in (compact, spaced)]
        before = dict(parse_counts)
        aliased = [_raw(port, "POST", path, body)
                   for path in ("/v1/run", "/v1/fdt")
                   for body in (compact, spaced, compact)]
        assert parse_counts == before  # no decode, no schema, no key
        hits = _hits(port)
        aliases = dict(pipeline._aliases)
    assert json.loads(computed[1])["status"] == "computed"
    assert disk == memory == aliased[0] == aliased[1] == aliased[2]
    assert fdt[0] == fdt[1] == aliased[3] == aliased[4] == aliased[5]
    # One key, two endpoints: two distinct replies.
    assert disk[0] == fdt[0][0] == 200 and disk[1] != fdt[0][1]
    assert json.loads(disk[1])["key"] == json.loads(fdt[0][1])["key"]
    # Each endpoint and spelling is its own alias of that key.
    assert sorted(endpoint for endpoint, _ in aliases) == (
        ["/v1/fdt"] * 2 + ["/v1/run"] * 2)
    assert set(aliases.values()) == {json.loads(disk[1])["key"]}
    replies = [disk, memory, *fdt, *aliased]
    assert hits == sum(json.loads(body)["status"] == "hit"
                       for _, body in replies) == 10
    assert _probe_tiers(span_sink) == (
        ["miss", "disk", "memory", "memory", "memory"] + ["body"] * 6)


def test_body_aliases_are_bounded_and_a_lost_hit_falls_through(
        monkeypatch, tmp_path, parse_counts, span_sink):
    monkeypatch.setattr(pipeline_mod, "HOT_CAPACITY", 3)
    bodies = [_synthetic_payload(iterations=n) for n in (8, 9, 10, 11)]
    config = ServeConfig(port=0, cache_dir=str(tmp_path / "c"))
    with ServerThread(config) as handle:
        port, pipeline = handle.port, handle.server.pipeline
        keys = [json.loads(_raw(port, "POST", "/v1/run", body)[1])["key"]
                for body in bodies]
        for body in bodies:  # disk hits, each aliased
            _raw(port, "POST", "/v1/run", body)
        assert list(pipeline._aliases.values()) == keys[1:]
        # The oldest alias went with its hit: bodies[0] parses again.
        runs = parse_counts["parse_run_request"]
        _raw(port, "POST", "/v1/run", bodies[0])
        assert parse_counts["parse_run_request"] == runs + 1
        assert list(pipeline._aliases.values()) == [*keys[2:], keys[0]]
        # keys[0]'s hit is evicted under its alias: the alias is dropped
        # and the body takes the full path (a disk hit).
        for key in keys[1:]:
            _raw(port, "GET", f"/v1/result/{key}")
        _raw(port, "POST", "/v1/run", bodies[0])
        assert parse_counts["parse_run_request"] == runs + 2
        # keys[2] is remembered again through /v1/result alone: its alias
        # finds no /v1/run reply, and the body takes the full path (a
        # memory hit), which aliases it again.
        _raw(port, "POST", "/v1/run", bodies[2])
        _raw(port, "POST", "/v1/run", bodies[2])
        assert parse_counts["parse_run_request"] == runs + 3
        assert list(pipeline._aliases.values()) == [keys[3], keys[0], keys[2]]
    assert _probe_tiers(span_sink) == (
        ["miss"] * 4 + ["disk"] * 4 + ["disk"] + ["disk"] * 3 + ["disk"]
        + ["memory", "body"])


def test_a_draining_server_refuses_a_remembered_body():
    request = HttpRequest("POST", "/v1/run",
                          body=json.dumps(_synthetic_payload()).encode())

    async def go():
        server = ExperimentServer(ServeConfig())
        await server.pipeline.start()
        try:
            # Computed, a disk hit, then answered from its bytes.
            served = [(await server._respond(request))[0] for _ in range(3)]
            assert served == [200] * 3 and server.pipeline._aliases
            server._draining = True
            return await server._respond(request)
        finally:
            await server.pipeline.drain()

    status, refused, *_ = asyncio.run(go())
    assert status == 503 and "draining" in refused["error"]


# -- server endpoints over real sockets -------------------------------

def _counting_factory(calls: list[list[str]]):
    def factory() -> JobRunner:
        runner = JobRunner(cache=ResultCache(None))
        inner = runner.resolve

        def counting(specs):
            calls.append([spec.key() for spec in specs])
            return inner(specs)

        runner.resolve = counting  # type: ignore[method-assign]
        return runner

    return factory


def test_server_serves_repeats_from_cache_without_simulating():
    calls: list[list[str]] = []
    with ServerThread(ServeConfig(port=0),
                      runner_factory=_counting_factory(calls)) as handle:
        with ServeClient(port=handle.port) as client:
            payload = _synthetic_payload()
            status, first = client.request("POST", "/v1/run", payload)
            assert status == 200
            assert first["status"] == "computed"
            assert len(calls) == 1

            status, second = client.request("POST", "/v1/run", payload)
            assert status == 200
            assert second["status"] == "hit"
            assert second["key"] == first["key"]
            assert second["result"] == first["result"]
            assert len(calls) == 1  # no new simulator invocation

            # The content key works on the read-only result endpoint ...
            fetched = served(client, "GET", f"/v1/result/{first['key']}")
            assert fetched["result"] == first["result"]
            # ... and a bogus key is a 404, not an error.
            status, missing = client.request("GET", "/v1/result/feedbeef")
            assert status == 404

            samples = parse_prometheus(metrics_text(client))
            assert samples["repro_serve_cache_misses_total"] == 1
            assert samples["repro_serve_cache_hits_total"] >= 2


def test_server_refuses_an_impossible_synthetic_request_without_computing():
    calls: list[list[str]] = []
    with ServerThread(ServeConfig(port=0),
                      runner_factory=_counting_factory(calls)) as handle:
        with ServeClient(port=handle.port) as client:
            status, body = client.request(
                "POST", "/v1/run", {"synthetic": {"cs_fraction": 1.0}})
            assert status == 400 and "cs_fraction" in body["error"]
    assert calls == []


def test_server_refuses_a_non_finite_scale_without_computing():
    calls: list[list[str]] = []
    with ServerThread(ServeConfig(port=0),
                      runner_factory=_counting_factory(calls)) as handle:
        # json.dumps spells these as the NaN and Infinity literals.
        for scale in (float("nan"), float("inf"), 0, -1):
            status, body = _raw(handle.port, "POST", "/v1/run",
                                {"workload": "EP", "scale": scale})
            assert status == 400, (scale, body)
            assert b"scale" in body
    assert calls == []


def test_server_run_fdt_and_sweep_endpoints():
    with ServerThread(ServeConfig(port=0)) as handle:
        with ServeClient(port=handle.port) as client:
            health = client.healthz()
            assert health["status"] == "ok"

            run = served(client, "POST", "/v1/run", dict(
                synthetic={"cs_fraction": 0.2, "bus_lines": 2,
                           "iterations": 8, "compute_instr": 200},
                policy="static", threads=2, machine={"cores": 8}))
            assert run["cycles"] > 0
            assert run["threads"] == [2]
            assert set(run) >= {"power", "ipc", "energy",
                                "bus_utilization", "key"}

            decision = served(client, "POST", "/v1/fdt", dict(
                synthetic={"cs_fraction": 0.4, "bus_lines": 0,
                           "iterations": 16, "compute_instr": 200},
                machine={"cores": 8}))
            assert decision["policy"] == "fdt"
            assert len(decision["chosen_threads"]) == 1
            assert 1 <= decision["chosen_threads"][0] <= 8
            kernel = decision["kernels"][0]
            assert kernel["estimates"]  # the Eq. 3/5/7 curve
            assert kernel["threads"] == decision["chosen_threads"][0]

            sweep = served(client, "POST", "/v1/sweep", dict(
                synthetic={"cs_fraction": 0.2, "bus_lines": 2,
                           "iterations": 8, "compute_instr": 200},
                threads=[1, 2, 4], machine={"cores": 8}))
            assert [p["threads"] for p in sweep["points"]] == [1, 2, 4]
            assert sweep["best_threads"] in (1, 2, 4)
            best = min(sweep["points"], key=lambda p: p["cycles"])
            assert sweep["best_threads"] == best["threads"]

            status, body = client.request("GET", "/v1/nonsense")
            assert status == 404
            status, body = client.request("GET", "/v1/run")
            assert status == 405
            status, body = client.request("POST", "/v1/run",
                                          {"workload": "NoSuchWorkload"})
            assert status == 400
            assert "NoSuchWorkload" in body["error"]
            status, body = client.request(
                "POST", "/v1/run", {"workload": "EP", "machine": {"cores": 0}})
            assert status == 400 and "cores" in body["error"]  # was a 500


def test_server_maps_request_timeout_to_504_with_spec_key():
    gate = threading.Event()
    runner = _StubRunner(gate=gate)
    config = ServeConfig(port=0, workers=1, request_timeout=0.05)
    try:
        with ServerThread(config, runner_factory=lambda: runner) as handle:
            with ServeClient(port=handle.port) as client:
                payload = _synthetic_payload()
                status, body = client.request("POST", "/v1/run", payload)
                assert status == 504
                assert body["status"] == "timeout"
                # The body names the spec key so the client can poll
                # /v1/result/<key> for the abandoned computation.
                assert body["key"] == schema.parse_run_request(payload).key()
            # Release the stub before the server exits: its drain waits
            # for the worker, which would sit out the stub's whole wait.
            gate.set()
    finally:
        gate.set()


def test_overloaded_server_sheds_with_retry_after():
    gate, started = threading.Event(), threading.Event()
    config = ServeConfig(port=0, workers=1, queue_depth=1, max_batch=1,
                         retry_after=3.0)
    with ServerThread(config,
                      runner_factory=_gated_factory(gate, started)) as handle:
        async def go():
            client = AsyncServeClient(port=handle.port)
            first = asyncio.create_task(
                client.request("POST", "/v1/run", _synthetic_payload(8)))
            while not started.is_set():
                await asyncio.sleep(0.005)
            second = asyncio.create_task(
                client.request("POST", "/v1/run", _synthetic_payload(9)))
            await asyncio.sleep(0.05)
            shed_status, shed_body = await client.request(
                "POST", "/v1/run", _synthetic_payload(10))
            gate.set()
            served = await asyncio.gather(first, second)
            return shed_status, shed_body, served

        shed_status, shed_body, served = asyncio.run(go())
        assert shed_status == 429
        assert shed_body["status"] == "shed"
        assert all(status == 200 for status, _ in served)
        samples = parse_prometheus(
            metrics_text(ServeClient(port=handle.port)))
        assert samples["repro_serve_shed_total"] == 1
        assert samples['repro_serve_responses_total{code="429"}'] == 1


# -- graceful drain ---------------------------------------------------

def test_sigterm_drains_inflight_and_refuses_new_work(tmp_path):
    gate, started = threading.Event(), threading.Event()
    manifest_path = tmp_path / "serve-manifest.json"
    config = ServeConfig(port=0, workers=1,
                         manifest_path=str(manifest_path))

    async def go():
        server: ExperimentServer | None = None

        def factory() -> JobRunner:
            assert server is not None
            return _gated_factory(gate, started,
                                  manifest=server.manifest)()

        server = ExperimentServer(config, runner_factory=factory)
        await server.start()
        server.install_signal_handlers()
        client = AsyncServeClient(port=server.port)
        inflight = asyncio.create_task(
            client.request("POST", "/v1/run", _synthetic_payload()))
        while not started.is_set():  # the request is inside the runner
            await asyncio.sleep(0.005)

        os.kill(os.getpid(), signal.SIGTERM)
        await asyncio.sleep(0.05)  # let the handler start the drain
        assert server._draining

        gate.set()  # now let the in-flight simulation finish
        status, body = await inflight
        await asyncio.wait_for(server.serve_forever(), timeout=10.0)

        # New connections are refused once the listener closed.
        with pytest.raises(ServeClientError):
            await client.request("GET", "/healthz")
        return status, body

    status, body = asyncio.run(go())
    assert status == 200  # admitted before SIGTERM, completed after
    assert body["status"] == "computed"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["counts"]["computed"] == 1


# -- serving state per request ------------------------------------------

@pytest.fixture
def canned_execution(monkeypatch):
    """Every job "simulates" by returning one real result at once."""
    from repro.jobs import executor

    canned = app_result_to_dict(_synthetic_spec().run())
    monkeypatch.setattr(executor, "_execute_payload",
                        lambda spec_dict, trace_dir=None: canned)


def _post_never_seen(port: int, first: int, count: int) -> None:
    with ServeClient(port=port) as client:
        for n in range(first, first + count):
            status, body = client.request(
                "POST", "/v1/run", _synthetic_payload(iterations=n))
            assert (status, body["status"]) == (200, "computed")


def test_serving_state_does_not_grow_with_requests(tmp_path,
                                                   canned_execution):
    """What the process still holds after 2N more cold requests grows
    by under 100 bytes a request: no row, span or record is kept."""
    import gc
    import tracemalloc

    count = 100
    config = ServeConfig(port=0, cache_dir=str(tmp_path / "c"))

    def settled(handle: ServerThread) -> int:
        while handle.server._conn_tasks:  # the last close is handled
            time.sleep(0.001)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    with ServerThread(config) as handle:
        tracemalloc.start()
        try:
            _post_never_seen(handle.port, 8, count)
            before = settled(handle)
            _post_never_seen(handle.port, 8 + count, 2 * count)
            after = settled(handle)
        finally:
            tracemalloc.stop()
        manifest = handle.server.manifest
    assert manifest.entries is None
    assert manifest.counts["computed"] == 3 * count
    assert (after - before) / (2 * count) < 100, after - before


def test_a_manifest_path_keeps_one_row_per_request(tmp_path,
                                                   canned_execution):
    path = tmp_path / "serve-manifest.json"
    config = ServeConfig(port=0, cache_dir=str(tmp_path / "c"),
                         manifest_path=str(path))
    with ServerThread(config) as handle:
        _post_never_seen(handle.port, 8, 5)
        _raw(handle.port, "POST", "/v1/run", _synthetic_payload(iterations=8))
    doc = json.loads(path.read_text())
    assert list(doc) == ["schema", "counts", "wall_time", "started_at",
                         "finished_at", "entries"]
    assert doc["counts"] == {"total": 5, "hits": 0, "computed": 5,
                             "failed": 0, "timeouts": 0}
    assert [e["status"] for e in doc["entries"]] == ["computed"] * 5
    assert doc["started_at"] == min(e["started_at"] for e in doc["entries"])
    assert doc["finished_at"] == max(e["finished_at"]
                                     for e in doc["entries"])


def test_server_thread_stop_is_idempotent_drain():
    handle = ServerThread(ServeConfig(port=0)).start()
    port = handle.port
    with ServeClient(port=port) as client:
        assert client.healthz()["status"] == "ok"
    handle.stop()
    handle.stop()  # second stop is a no-op
    with pytest.raises(ServeClientError):
        ServeClient(port=port, timeout=1.0).healthz()


# -- loadgen + metrics reconciliation ---------------------------------

def test_loadgen_reconciles_with_server_metrics():
    with ServerThread(ServeConfig(port=0)) as handle:
        report = run_loadgen_blocking(
            "127.0.0.1", handle.port, _synthetic_payload(),
            rps=40.0, duration=0.5)
        samples = parse_prometheus(
            metrics_text(ServeClient(port=handle.port)))

    assert report.sent == 20
    assert report.completed == report.sent
    assert report.errors == 0
    assert report.error_5xx == 0
    assert report.status_codes == {"200": report.completed}
    # Identical specs: one cold computation, everything else warm.
    assert report.outcomes["computed"] == 1
    assert report.hit_rate > 0.5
    assert report.shed_rate == 0.0

    # The server's counters tell the same story as the client's report.
    assert samples['repro_serve_requests_total{endpoint="/v1/run"}'] \
        == report.completed
    assert samples['repro_serve_responses_total{code="200"}'] \
        == report.completed
    assert samples["repro_serve_cache_misses_total"] == 1
    assert samples["repro_serve_cache_hits_total"] \
        == report.outcomes.get("hit", 0)
    assert samples["repro_serve_coalesced_total"] \
        == report.outcomes.get("coalesced", 0)
    assert samples["repro_serve_shed_total"] == 0
    # The scrape sees itself in flight; nothing else is.
    assert samples["repro_serve_in_flight"] == 1
    assert samples["repro_serve_request_seconds_count"] == report.completed

    # The report carries the documented percentile and rate fields.
    d = report.to_dict()
    assert set(d["latency_ms"]) == {"p50", "p95", "p99"}
    assert d["latency_ms"]["p50"] <= d["latency_ms"]["p99"]
    text = report.format()
    assert "p50" in text and "hit rate" in text


def test_loadgen_percentiles_nearest_rank():
    from repro.serve import LoadgenReport
    report = LoadgenReport(target_rps=1.0, duration=1.0, sent=4,
                           completed=4,
                           latencies=[0.010, 0.020, 0.030, 0.100])
    assert report.percentile(0.0) == 0.010
    assert report.percentile(0.5) == pytest.approx(0.030)
    assert report.percentile(1.0) == 0.100
    assert LoadgenReport(target_rps=1.0, duration=1.0).percentile(0.5) == 0.0


# -- jobs-layer satellites --------------------------------------------

def test_get_or_none_is_read_only_while_get_repairs():
    cache = ResultCache(None)
    cache.put("ab" + "0" * 62, {"spec": 1}, {"value": 1})
    key = "cd" + "0" * 62
    path = cache.path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{not json", encoding="utf-8")

    # The serving fast path reports a miss and leaves the file alone.
    assert cache.get_or_none(key) is None
    assert path.exists()
    # The batch path treats corruption as a miss and deletes the entry.
    assert cache.get(key) is None
    assert not path.exists()
    # Plain misses never invent files or delete anything.
    assert cache.get_or_none("ef" + "0" * 62) is None
    assert cache.get("ef" + "0" * 62) is None
    assert len(cache) == 1


def test_manifest_counts_and_summary_surface_timeouts():
    manifest = RunManifest()
    manifest.record(RunRecord(key="a", workload="EP", policy="static-2",
                              status="computed", backend="serial"))
    manifest.record(RunRecord(key="b", workload="EP", policy="static-4",
                              status="timeout", backend="pool",
                              error="no result within 0.2s"))
    manifest.record(RunRecord(key="c", workload="EP", policy="static-8",
                              status="failed", backend="pool",
                              error="boom"))
    counts = manifest.counts
    assert counts == {"total": 3, "hits": 0, "computed": 1,
                      "failed": 1, "timeouts": 1}
    summary = manifest.summary()
    assert "1 TIMED OUT" in summary
    assert "1 FAILED" in summary


def test_job_runner_resolve_reports_per_spec_statuses():
    runner = JobRunner(cache=ResultCache(None))
    good = _synthetic_spec(iterations=8)
    resolutions = runner.resolve([good, good])
    # Duplicates in one batch simulate once and both resolve ok.
    assert [r.ok for r in resolutions] == [True, True]
    assert resolutions[0].key == resolutions[1].key
    assert resolutions[0].status == "computed"
    assert resolutions[0].app_result().cycles > 0

    # A fresh runner sees the first's cached result as a hit.
    warm = JobRunner(cache=ResultCache(None))
    again = warm.resolve([good])[0]
    assert again.status == "hit"
    assert again.backend == "cache"
    assert again.result == resolutions[0].result


def test_job_runner_resolve_never_raises_on_timeout(monkeypatch):
    import multiprocessing
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("crash-injection patches need forked workers")
    from repro.jobs import executor as executor_mod

    def too_slow(spec_dict, trace_dir=None):
        time.sleep(5.0)
        return {}

    monkeypatch.setattr(executor_mod, "_execute_payload", too_slow)
    runner = JobRunner(jobs=2, timeout=0.2)
    # Two specs so the pool backend (the only one with a per-job
    # timeout) actually engages; a single spec runs serially.
    specs = [_synthetic_spec(iterations=8, threads=t) for t in (1, 2)]
    resolutions = runner.resolve(specs)
    assert [r.status for r in resolutions] == ["timeout", "timeout"]
    assert not any(r.ok for r in resolutions)
    assert all("within" in r.error for r in resolutions)
    with pytest.raises(JobError, match="timeout"):
        resolutions[0].app_result()
    assert runner.manifest.counts["timeouts"] == 2


# -- satellite: bind retry on EADDRINUSE ------------------------------

def _flaky_start_server(monkeypatch, failures: int,
                        error: int | None = None):
    """Patch asyncio.start_server to fail ``failures`` times first."""
    import errno as errno_mod

    real = asyncio.start_server
    calls = {"n": 0}

    async def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] <= failures:
            code = error if error is not None else errno_mod.EADDRINUSE
            raise OSError(code, os.strerror(code))
        return await real(*args, **kwargs)

    monkeypatch.setattr(asyncio, "start_server", flaky)
    return calls


def test_bind_retries_past_transient_eaddrinuse(monkeypatch):
    calls = _flaky_start_server(monkeypatch, failures=2)
    monkeypatch.setattr(server_mod, "BIND_RETRIES", 3)
    server = ExperimentServer(ServeConfig(port=0, workers=1))

    async def go():
        await server.start()
        port = server.port
        await server.drain()
        return port

    port = asyncio.run(go())
    assert calls["n"] == 3
    assert isinstance(port, int) and port > 0  # chosen port surfaced


def test_bind_gives_up_when_retries_are_exhausted(monkeypatch):
    import errno

    calls = _flaky_start_server(monkeypatch, failures=100)
    monkeypatch.setattr(server_mod, "BIND_RETRIES", 2)
    server = ExperimentServer(ServeConfig(port=0, workers=1))

    async def go():
        try:
            with pytest.raises(OSError) as excinfo:
                await server.start()
            return excinfo.value.errno
        finally:
            await server.pipeline.drain()

    assert asyncio.run(go()) == errno.EADDRINUSE
    assert calls["n"] == 3  # the first try plus both retries


def test_bind_retries_zero_fails_on_first_eaddrinuse(monkeypatch):
    calls = _flaky_start_server(monkeypatch, failures=100)
    monkeypatch.setattr(server_mod, "BIND_RETRIES", 0)
    server = ExperimentServer(ServeConfig(port=0, workers=1))

    async def go():
        try:
            with pytest.raises(OSError):
                await server.start()
        finally:
            await server.pipeline.drain()

    asyncio.run(go())
    assert calls["n"] == 1


def test_non_eaddrinuse_bind_errors_are_not_retried(monkeypatch):
    import errno

    calls = _flaky_start_server(monkeypatch, failures=100,
                                error=errno.EACCES)
    monkeypatch.setattr(server_mod, "BIND_RETRIES", 5)
    server = ExperimentServer(ServeConfig(port=0, workers=1))

    async def go():
        try:
            with pytest.raises(OSError) as excinfo:
                await server.start()
            return excinfo.value.errno
        finally:
            await server.pipeline.drain()

    assert asyncio.run(go()) == errno.EACCES
    assert calls["n"] == 1  # privilege errors never resolve by waiting


def test_server_thread_surfaces_the_bound_port():
    thread = ServerThread(ServeConfig(port=0, workers=1))
    try:
        thread.start()
        assert thread.port > 0
        client = ServeClient(port=thread.port)
        try:
            assert client.healthz()["status"] in ("ok", "draining")
        finally:
            client.close()
    finally:
        thread.stop()
