"""The asyncio experiment server: HTTP front end over the pipeline.

Endpoints:

========================  ==================================================
``POST /v1/run``          one complete simulation (cache-served when warm)
``POST /v1/sweep``        static thread sweep; points resolved concurrently
``POST /v1/fdt``          FDT/SAT/BAT decision + the Eq. 3/5/7 estimates
``GET  /v1/result/<key>`` content-addressed cache lookup (read-only)
``GET  /healthz``         liveness and drain state
``GET  /metrics``         Prometheus text exposition
========================  ==================================================

A pipeline resolution's status maps to its code through the one table
:data:`HTTP_STATUS` (a ``504`` body carries the spec key so the client
can poll ``/v1/result/<key>`` once the abandoned computation lands);
outside the pipeline: ``400`` malformed request, ``404`` unknown route
or missing key, ``501`` a ``Transfer-Encoding`` body, ``503`` draining.

On SIGTERM (or SIGINT) the server drains gracefully: the listening
socket closes (new connections are refused), requests already admitted
run to completion, keep-alive connections asking for more work get
``503``, and the accumulated run manifest is flushed to
``ServeConfig.manifest_path``.
"""

from __future__ import annotations

import asyncio
import errno
import signal
from hashlib import sha256
from time import perf_counter
from typing import Callable

from repro.errors import ServeError, ServeRequestError
from repro.faults import hooks as fault_hooks
from repro.fdt.runner import AppRunResult
from repro.jobs import (
    JobSpec,
    PolicySpec,
    Resolution,
    ResultCache,
    app_result_from_dict,
)
from repro.jobs.resolution import (
    SERVED,
    STATUS_FAILED,
    STATUS_PREFLIGHT,
    STATUS_SHED,
    STATUS_TIMEOUT,
)
from repro.obs import get_logger
from repro.obs.registry import default_registry
from repro.obs.tracing import span
from repro.serve import schema
from repro.serve.config import ServeConfig
from repro.serve.http import (
    HttpProtocolError,
    HttpRequest,
    json_body,
    read_request,
    response_bytes,
)
from repro.serve.metrics import ServeMetrics
from repro.serve.pipeline import RequestPipeline, RunnerFactory

#: Resolution status -> HTTP status code, for every ``/v1`` endpoint.
HTTP_STATUS = {
    **dict.fromkeys(SERVED, 200),
    STATUS_SHED: 429,
    STATUS_TIMEOUT: 504,
    STATUS_FAILED: 500,
    STATUS_PREFLIGHT: 422,
}

#: Extra bind attempts when the port is racily taken (EADDRINUSE)
#: before startup fails — CI runs many servers on one host.
BIND_RETRIES = 3

#: Paths that are their own ``endpoint`` label; any other path is
#: ``other``, so request input cannot grow ``/metrics``.
_ROUTES = frozenset(("/v1/run", "/v1/sweep", "/v1/fdt", "/healthz",
                     "/metrics"))

_log = get_logger("serve")


class _Reply(Exception):
    """Internal short-circuit carrying a ready HTTP reply."""

    def __init__(self, status: int, payload: dict,
                 headers: dict[str, str] | None = None) -> None:
        super().__init__(payload.get("error", ""))
        self.status = status
        self.payload = payload
        self.headers = headers or {}


class ExperimentServer:
    """One serving instance: sockets, pipeline, metrics, drain logic."""

    def __init__(self, config: ServeConfig | None = None,
                 runner_factory: RunnerFactory | None = None) -> None:
        self.config = config or ServeConfig()
        self.metrics = ServeMetrics()
        self.cache = (None if self.config.no_cache
                      else ResultCache(self.config.cache_dir))
        self.pipeline = RequestPipeline(self.config, self.metrics,
                                        self.cache,
                                        runner_factory=runner_factory)
        self._server: asyncio.AbstractServer | None = None
        self._draining = False
        self._stopped = asyncio.Event()
        #: Open connections -> busy flag (True while a request is being
        #: answered).  Drain closes idle ones; busy ones finish their
        #: response, notice the drain, and close themselves.
        self._connections: dict[asyncio.StreamWriter, bool] = {}
        self._conn_tasks: set[asyncio.Task] = set()
        self.port = self.config.port

    @property
    def manifest(self):
        return self.pipeline.manifest

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and spawn the pipeline workers.

        A requested (non-ephemeral) port can be racily taken between
        the caller's check and our bind — TIME_WAIT stragglers, test
        suites cycling servers on one host.  EADDRINUSE is retried up
        to :data:`BIND_RETRIES` times with a short growing pause
        before startup fails; any other bind error fails immediately.
        """
        await self.pipeline.start()
        for attempt in range(BIND_RETRIES + 1):
            try:
                self._server = await asyncio.start_server(
                    self._handle_connection, host=self.config.host,
                    port=self.config.port)
                break
            except OSError as exc:
                if (exc.errno != errno.EADDRINUSE
                        or attempt >= BIND_RETRIES):
                    raise
                _log.warning("bind failed: address in use; retrying",
                             extra={"port": self.config.port,
                                    "attempt": attempt + 1})
                await asyncio.sleep(0.05 * (attempt + 1))
        sockets = self._server.sockets if self._server else ()
        for sock in sockets or ():
            self.port = sock.getsockname()[1]
            break
        else:
            raise ServeError("server bound no listening socket")

    def install_signal_handlers(self) -> None:
        """Drain on SIGTERM/SIGINT (call from the loop's thread)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(self.drain()))

    async def serve_forever(self) -> None:
        """Block until a drain completes."""
        await self._stopped.wait()

    async def drain(self) -> None:
        """Stop accepting, finish in-flight work, flush the manifest."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.pipeline.drain()
        # Idle keep-alive connections are parked in read_request with no
        # response owed; close them so their handlers see EOF.  Busy
        # handlers finish writing, re-check the drain flag, and exit.
        for writer, busy in list(self._connections.items()):
            if not busy:
                writer.close()
        while self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks),
                                 return_exceptions=True)
        if self.config.manifest_path:
            self.manifest.write(self.config.manifest_path)
        self._stopped.set()

    # -- connection handling ------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._connections[writer] = False
        try:
            # Fault site serve.connection: drop the socket on arrival,
            # mid-handshake from the client's point of view.
            if fault_hooks.drop_connection("serve.connection"):
                return
            while True:
                # Fault site serve.read: stall before reading, as a
                # slow-loris client trickling its request would.
                delay = fault_hooks.delay_seconds("serve.read")
                if delay > 0:
                    await asyncio.sleep(delay)
                try:
                    request = await read_request(reader)
                except HttpProtocolError as exc:
                    # Metered like a routed reply: endpoint "other".
                    self.metrics.requests.inc("other")
                    self.metrics.responses.inc(str(exc.status))
                    writer.write(response_bytes(
                        exc.status, json_body({"error": str(exc)}),
                        keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                self._connections[writer] = True
                keep_alive = request.keep_alive and not self._draining
                status, payload, headers, raw = await self._respond(request)
                writer.write(response_bytes(
                    status, raw if raw is not None else json_body(payload),
                    content_type=headers.pop("Content-Type",
                                             "application/json"),
                    extra_headers=headers, keep_alive=keep_alive))
                await writer.drain()
                self._connections[writer] = False
                if not keep_alive or self._draining:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away; nothing to answer
        finally:
            self._connections.pop(writer, None)
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, request: HttpRequest
                       ) -> tuple[int, dict, dict[str, str], bytes | None]:
        """Route, execute, and meter one request.  ``raw`` is the body
        where it is already encoded (``/metrics`` text, a remembered
        hit's reply); otherwise the caller encodes ``payload``."""
        endpoint = self._endpoint_label(request.path)
        self.metrics.requests.inc(endpoint)
        self.metrics.in_flight.inc()
        started = perf_counter()
        raw: bytes | None = None
        headers: dict[str, str] = {}
        with span("serve.request", endpoint=endpoint,
                  method=request.method) as ctx:
            try:
                status, payload, headers, raw = \
                    await self._dispatch(request)
            except _Reply as reply:
                status, payload, headers = (reply.status, reply.payload,
                                            reply.headers)
            except ServeRequestError as exc:
                status, payload = 400, {"error": str(exc)}
            except Exception as exc:  # never let a handler kill the server
                status, payload = 500, {
                    "error": f"{type(exc).__name__}: {exc}"}
            finally:
                self.metrics.in_flight.dec()
                elapsed = perf_counter() - started
                self.metrics.latency.observe(elapsed)
            _log.info("request",
                      extra={"endpoint": endpoint, "status": status,
                             "duration_ms": round(elapsed * 1e3, 3),
                             "key": payload.get("key", "")})
        headers = dict(headers, **{"X-Repro-Trace-Id": ctx.trace_id})
        self.metrics.responses.inc(str(status))
        return status, payload, headers, raw

    @staticmethod
    def _endpoint_label(path: str) -> str:
        if path.startswith("/v1/result/"):
            return "/v1/result"
        return path if path in _ROUTES else "other"

    async def _dispatch(self, request: HttpRequest
                        ) -> tuple[int, dict, dict[str, str], bytes | None]:
        path, method = request.path, request.method
        if path == "/healthz" and method == "GET":
            return 200, self._health_payload(), {}, None
        if path == "/metrics" and method == "GET":
            # The server's own panel first (byte-identical to the
            # pre-obs exposition), then whatever the jobs / FDT / bench
            # layers registered into the process-global registry.
            text = self.metrics.render() + \
                default_registry().render_prometheus()
            return 200, {}, {"Content-Type": "text/plain; version=0.0.4"}, \
                text.encode("utf-8")
        if path.startswith("/v1/result/") and method == "GET":
            return self._handle_result(path)
        if path in ("/v1/run", "/v1/sweep", "/v1/fdt"):
            if method != "POST":
                return 405, {"error": f"{path} takes POST"}, {}, None
            if self._draining:
                return 503, {"error": "server is draining"}, {}, None
            digest = None
            if self.cache is not None and path != "/v1/sweep":
                # A body this endpoint already answered with a remembered
                # hit: no decode, no schema, no JobSpec, no key.
                digest = sha256(request.body).digest()
                reply = self.pipeline.remembered(path, digest)
                if reply is not None:
                    payload, raw = reply
                    return 200, payload, {}, raw
            try:
                body = request.json()
            except HttpProtocolError as exc:
                return 400, {"error": str(exc)}, {}, None
            handler = {"/v1/run": self._handle_run,
                       "/v1/sweep": self._handle_sweep,
                       "/v1/fdt": self._handle_fdt}[path]
            status, payload, headers, raw = await handler(body)
            if raw is not None and digest is not None:
                # Answered with a remembered hit's encoded reply.
                self.pipeline.remember(path, digest, payload["key"])
            return status, payload, headers, raw
        return 404, {"error": f"no route {method} {path}"}, {}, None

    def _health_payload(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "in_flight": self.metrics.in_flight.value(),
            "queue_depth": self.config.queue_depth,
            "breaker": self.pipeline.breaker.to_dict(),
        }

    # -- endpoint handlers --------------------------------------------

    def _handle_result(self, path: str
                       ) -> tuple[int, dict, dict[str, str], bytes | None]:
        key = path[len("/v1/result/"):]
        if self.cache is None:
            return 404, {"error": "server runs without a result cache"}, \
                {}, None
        hit = self.pipeline.probe(key)
        if hit is None:
            return 404, {"error": "no cached result", "key": key}, {}, None
        return self._served("/v1/result", hit, lambda: {
            "key": key, "status": hit.status, "result": hit.result})

    async def _handle_run(self, body: dict
                          ) -> tuple[int, dict, dict[str, str], bytes | None]:
        with span("serve.schema", endpoint="/v1/run"):
            spec = schema.parse_run_request(body)
        resolution = await self.pipeline.resolve(spec)
        return self._served("/v1/run", resolution,
                            lambda: self._run_payload(spec, resolution))

    async def _handle_fdt(self, body: dict
                          ) -> tuple[int, dict, dict[str, str], bytes | None]:
        with span("serve.schema", endpoint="/v1/fdt"):
            spec = schema.parse_fdt_request(body)
        resolution = await self.pipeline.resolve(spec)
        return self._served("/v1/fdt", resolution,
                            lambda: self._fdt_payload(spec, resolution))

    async def _handle_sweep(self, body: dict
                            ) -> tuple[int, dict, dict[str, str],
                                       bytes | None]:
        with span("serve.schema", endpoint="/v1/sweep"):
            workload, counts, config = schema.parse_sweep_request(body)
        specs = [JobSpec(workload=workload, policy=PolicySpec.static(t),
                         config=config)
                 for t in counts]
        resolutions = await asyncio.gather(
            *[self.pipeline.resolve(spec) for spec in specs])
        points = []
        for threads, spec, resolution in zip(counts, specs, resolutions):
            point = self._point_payload(self._decoded(spec, resolution))
            point.update(threads=threads, key=resolution.key,
                         status=resolution.status)
            points.append(point)
        best = min(points, key=lambda p: (p["cycles"], p["threads"]))
        payload = {
            "workload": workload.label,
            "points": points,
            "best_threads": best["threads"],
        }
        return 200, payload, {}, None

    # -- payload shaping ----------------------------------------------

    def _served(self, endpoint: str, resolution: Resolution,
                build: Callable[[], dict]
                ) -> tuple[int, dict, dict[str, str], bytes | None]:
        """The 200 reply ``build()`` shapes from one resolution.  A
        remembered hit's is a pure function of its key and the endpoint:
        built and encoded once, kept beside the resolution."""
        replies = self.pipeline.replies(resolution)
        if replies is None:
            return 200, build(), {}, None
        if endpoint not in replies:
            payload = build()
            replies[endpoint] = payload, json_body(payload)
        payload, raw = replies[endpoint]
        return 200, payload, {}, raw

    def _raise_unserved(self, spec: JobSpec,
                        resolution: Resolution) -> None:
        """Map a non-served resolution to its HTTP reply."""
        code = HTTP_STATUS[resolution.status]
        if code == 200:
            return
        payload = {"key": resolution.key, "status": resolution.status,
                   "error": resolution.error}
        headers: dict[str, str] = {}
        if resolution.status == STATUS_SHED:
            # The pipeline derived the back-off from the queue's drain
            # rate (the configured value before any observation).
            payload["error"] = ("shed by admission control: "
                                + resolution.error)
            headers["Retry-After"] = f"{resolution.retry_after:g}"
        elif resolution.status == STATUS_TIMEOUT:
            # The spec key is in the body: the computation was
            # abandoned, not cancelled, so the client can poll
            # /v1/result/<key> for the late-arriving result.
            payload["workload"] = spec.workload.label
        raise _Reply(code, payload, headers)

    def _decoded(self, spec: JobSpec,
                 resolution: Resolution) -> AppRunResult:
        """A served resolution's result, decoded at most once per
        request: a validated cache hit already carries its decode."""
        self._raise_unserved(spec, resolution)
        if resolution.app is not None:
            return resolution.app
        assert resolution.result is not None
        # Not resolution.app_result(): profilers wrap this module's name.
        return app_result_from_dict(resolution.result)

    @staticmethod
    def _point_payload(app: AppRunResult) -> dict:
        """Headline metrics of a served resolution's decoded result."""
        run = app.result
        return {
            "cycles": app.cycles,
            "power": run.power,
            "bus_utilization": run.bus_utilization,
            "ipc": run.ipc,
            "energy": run.energy,
        }

    def _fdt_payload(self, spec: JobSpec, resolution: Resolution) -> dict:
        self._raise_unserved(spec, resolution)
        assert resolution.result is not None
        kernels = []
        for info in resolution.result["kernel_infos"]:
            kernels.append({
                "kernel": info["kernel_name"],
                "threads": info["threads"],
                "trained_iterations": info["trained_iterations"],
                "training_cycles": info["training_cycles"],
                "execution_cycles": info["execution_cycles"],
                "estimates": info["estimates"],
            })
        return {
            "key": resolution.key,
            "status": resolution.status,
            "workload": spec.workload.label,
            "policy": spec.policy.label,
            "chosen_threads": [k["threads"] for k in kernels],
            "kernels": kernels,
        }

    def _run_payload(self, spec: JobSpec, resolution: Resolution) -> dict:
        app = self._decoded(spec, resolution)
        payload = self._point_payload(app)
        payload.update(
            key=resolution.key,
            status=resolution.status,
            workload=spec.workload.label,
            policy=spec.policy.label,
            threads=list(app.threads_used),
            result=resolution.result,
        )
        return payload


async def run_server(config: ServeConfig,
                     runner_factory: RunnerFactory | None = None,
                     ready: "asyncio.Event | None" = None,
                     announce=print) -> ExperimentServer:
    """Start a server, announce its address, and serve until drained."""
    server = ExperimentServer(config, runner_factory=runner_factory)
    await server.start()
    try:
        server.install_signal_handlers()
    except (NotImplementedError, RuntimeError, ValueError):
        pass  # non-main thread or platform without signal support
    if announce is not None:
        announce(f"repro serve: listening on "
                 f"http://{config.host}:{server.port}", flush=True)
    if ready is not None:
        ready.set()
    await server.serve_forever()
    return server
