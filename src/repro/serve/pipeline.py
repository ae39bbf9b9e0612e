"""The serving request pipeline: cache → coalesce → admit → batch → run.

Every ``/v1`` simulation request resolves through one funnel:

1. **Cache fast path** — :meth:`RequestPipeline.probe` (shared with
   ``GET /v1/result/<key>``) looks the spec's content key up in a
   bounded in-process map of *validated* hits and only then on disk,
   with the read-only :meth:`~repro.jobs.ResultCache.get_or_none`, so a
   repeated request is answered without touching the worker pool, the
   write lock, or manifest state — and, once remembered, the file
   system.  An entry that fails the jobs layer's one result check
   (:func:`~repro.jobs.cache_hit`) is a miss like any other and is never
   remembered.  Keys are content addresses under one ``SCHEMA_VERSION``,
   so a remembered hit cannot go stale: eviction (oldest first, at
   :data:`HOT_CAPACITY`) is the only invalidation.  Beside the hits the
   pipeline remembers which request bodies were answered with one
   (:meth:`RequestPipeline.remembered`): a repeated body on the same
   endpoint is answered from its bytes, before any decode.
2. **Single-flight coalescing** — identical in-flight requests (same
   sha256 key) share one computation: the first becomes the *leader*,
   the rest await the leader's future and are answered ``coalesced``.
3. **Admission control** — leaders enter a bounded queue; when it is
   full — or the circuit breaker (:mod:`repro.serve.breaker`) is open
   because the jobs backend keeps failing whole batches — the request
   is shed immediately (HTTP 429 + ``Retry-After``) instead of queuing
   without bound behind doomed work.
4. **Batched execution** — worker tasks drain the queue, fold up to
   ``max_batch`` misses into one :meth:`~repro.jobs.JobRunner.resolve`
   call, and run it on a thread pool with a per-batch timeout.  The
   jobs backend (memoization, on-disk cache writes, process pool,
   retries, preflight gating) is reused as-is.

Every answer is a jobs-layer :class:`~repro.jobs.Resolution`: the
runner's record handed on unchanged, the leader's relabelled
``coalesced``, or one only the pipeline can mint (``shed``, the batch
``timeout``, ``failed`` when the runner itself raised).

All pipeline state (`_inflight`, `_hot`, `_aliases`, the queue, metrics)
is touched only on the event-loop thread; only the ``JobRunner`` call
itself runs on an executor thread.  A timed-out batch is abandoned, not interrupted — the
simulation keeps running in its thread and still warms the cache, so a
retried request usually hits.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable

from repro.faults import hooks as fault_hooks
from repro.jobs import (
    JobRunner,
    JobSpec,
    Resolution,
    ResultCache,
    RunManifest,
    cache_hit,
)
from repro.jobs.resolution import (
    SERVED,
    STATUS_COALESCED,
    STATUS_FAILED,
    STATUS_SHED,
    STATUS_TIMEOUT,
)
from repro.obs import get_logger
from repro.obs.registry import default_registry
from repro.obs.tracing import TraceContext, current_context, span, use_context
from repro.serve.breaker import CircuitBreaker
from repro.serve.config import ServeConfig
from repro.serve.metrics import ServeMetrics

RunnerFactory = Callable[[], JobRunner]

#: EMA weight of the newest drain-rate observation (see
#: :meth:`RequestPipeline.retry_after_seconds`).
_DRAIN_EMA_ALPHA = 0.25
#: Bounds on the derived ``Retry-After`` advice (seconds).
RETRY_AFTER_MIN = 1.0
RETRY_AFTER_MAX = 30.0
#: Validated hits remembered in memory (a result, its decode and its
#: encoded replies are a few KB: under 10 MB when full), and request
#: bodies remembered as answered by one (a digest and a key apiece).
HOT_CAPACITY = 1024

_log = get_logger("serve")


@dataclass(slots=True)
class _Entry:
    """One admitted leader waiting for a worker."""

    key: str
    spec: JobSpec
    future: "asyncio.Future[Resolution]"
    #: Trace context captured at admission.  Executors do not copy
    #: contextvars, so the worker re-enters it by hand
    #: (:func:`repro.obs.tracing.use_context`) before running the batch.
    ctx: TraceContext | None = None


@dataclass(slots=True)
class _Hot:
    """One remembered hit and the replies the server encoded for it."""

    resolution: Resolution
    #: endpoint -> ``(payload, encoded body)``: a hit's reply is a pure
    #: function of its key, so the server builds each at most once.
    replies: dict[str, tuple[dict, bytes]] = field(default_factory=dict)


class RequestPipeline:
    """The funnel described in the module docstring.

    Args:
        config: serving knobs (queue depth, batching, timeouts).
        metrics: instrument panel to update.
        cache: read path for the cache fast path; ``None`` disables it
            and the in-memory tier above it (every request goes through
            the workers).
        runner_factory: builds the :class:`~repro.jobs.JobRunner` a
            worker uses for one batch.  Injectable so tests can count
            or stub simulator invocations; the default builds runners
            that share ``cache`` and this pipeline's manifest.
    """

    def __init__(self, config: ServeConfig, metrics: ServeMetrics,
                 cache: ResultCache | None,
                 runner_factory: RunnerFactory | None = None) -> None:
        self.config = config
        self.metrics = metrics
        self.cache = cache
        #: Totals of every recorded resolution; rows for manifest_path.
        self.manifest = RunManifest(
            entries=[] if config.manifest_path else None)
        self._runner_factory = runner_factory or self._default_runner
        self._inflight: dict[str, asyncio.Future[Resolution]] = {}
        #: key -> validated hit; stays empty without a cache.
        self._hot: dict[str, _Hot] = {}
        #: (endpoint, sha256 of a request body) -> the key of the
        #: remembered hit whose encoded reply answered it.
        self._aliases: dict[tuple[str, bytes], str] = {}
        self._queue: asyncio.Queue[_Entry] = asyncio.Queue(
            maxsize=config.queue_depth)
        self._workers: list[asyncio.Task] = []
        self._executor: ThreadPoolExecutor | None = None
        #: EMA of observed batch drain rate (requests/second); 0 until
        #: the first batch completes.
        self._drain_rate = 0.0
        self.breaker = CircuitBreaker(
            threshold=config.breaker_threshold,
            probe_after=config.breaker_probe_after)

    def _default_runner(self) -> JobRunner:
        return JobRunner(cache=self.cache, jobs=self.config.jobs,
                         timeout=self.config.job_timeout,
                         manifest=self.manifest,
                         preflight=self.config.preflight)

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        """Spawn the worker tasks and the executor behind them."""
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serve")
        self._workers = [
            asyncio.create_task(self._worker(), name=f"serve-worker-{i}")
            for i in range(self.config.workers)]

    async def drain(self) -> None:
        """Finish every admitted request, then stop the workers."""
        while self._inflight:
            await asyncio.gather(*list(self._inflight.values()),
                                 return_exceptions=True)
        for task in self._workers:
            task.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # -- the funnel ---------------------------------------------------

    async def resolve(self, spec: JobSpec) -> Resolution:
        """Resolve one request through the cache/coalesce/admit funnel."""
        key = spec.key()

        # 1. Read-only cache fast path: no lock, no queue, no manifest.
        hit = self.probe(key)
        if hit is not None:
            # A hit while the breaker is open is a drain signal: an
            # abandoned (timed-out) batch kept running and warmed
            # the cache, so the backend still finishes work.
            self.breaker.note_drain()
            return hit

        # 2. Single-flight: identical in-flight work is joined, never
        #    duplicated.  (No awaits between the lookup and the queue
        #    put below, so leader registration is race-free on the
        #    event loop.)
        leader = self._inflight.get(key)
        if leader is not None:
            self.metrics.coalesced.inc()
            with span("serve.coalesce", key=key):
                resolution = await asyncio.shield(leader)
            if resolution.status in SERVED:
                return replace(resolution, status=STATUS_COALESCED)
            return resolution

        # 3. Admission control: a full queue — or an open circuit
        #    breaker — sheds instead of queuing doomed work.
        if not self.breaker.allow():
            return self._shed(key, "circuit open")
        future: asyncio.Future[Resolution] = (
            asyncio.get_running_loop().create_future())
        entry = _Entry(key=key, spec=spec, future=future,
                       ctx=current_context())
        try:
            self._queue.put_nowait(entry)
        except asyncio.QueueFull:
            return self._shed(key, "queue full")

        # 4. Admitted: this request leads the computation for its key.
        self.metrics.misses.inc()
        self._inflight[key] = future
        return await asyncio.shield(future)

    def probe(self, key: str) -> Resolution | None:
        """The validated hit for ``key`` — from memory, else from disk
        (and then remembered) — or ``None``."""
        if self.cache is None:
            return None
        hot = self._hot
        with span("serve.cache_probe", key=key) as ctx:
            entry = hot.get(key)
            if entry is not None:
                ctx.attrs["tier"] = "memory"
            else:
                hit = cache_hit(key, self.cache.get_or_none(key))
                if hit is None:
                    ctx.attrs["tier"] = "miss"
                    return None
                ctx.attrs["tier"] = "disk"
                if len(hot) >= HOT_CAPACITY:
                    del hot[next(iter(hot))]
                entry = hot[key] = _Hot(hit)
        self.metrics.hits.inc()
        return entry.resolution

    def replies(self, resolution: Resolution
                ) -> dict[str, tuple[dict, bytes]] | None:
        """Where to keep encoded replies for ``resolution``: beside it
        when it is the remembered hit for its key, else nowhere."""
        entry = self._hot.get(resolution.key)
        return (entry.replies
                if entry is not None and entry.resolution is resolution
                else None)

    def remembered(self, endpoint: str, digest: bytes
                   ) -> tuple[dict, bytes] | None:
        """The reply remembered for a request body (by its sha256
        ``digest``) that ``endpoint`` already answered with a remembered
        hit, or ``None``: the body then takes the full path.

        An alias cannot go stale: in one process the same bytes on the
        same endpoint always parse to the same spec, hence the same key.
        One whose hit was evicted, or that has no reply for the
        endpoint, is dropped.
        """
        alias = (endpoint, digest)
        key = self._aliases.get(alias)
        if key is None:
            return None
        entry = self._hot.get(key)
        reply = entry.replies.get(endpoint) if entry is not None else None
        if reply is None:
            del self._aliases[alias]
            return None
        with span("serve.cache_probe", key=key, tier="body"):
            pass
        self.metrics.hits.inc()
        self.breaker.note_drain()
        return reply

    def remember(self, endpoint: str, digest: bytes, key: str) -> None:
        """Alias a request body to the remembered hit ``key`` whose
        encoded reply ``endpoint`` just answered it with."""
        aliases = self._aliases
        if len(aliases) >= HOT_CAPACITY and (endpoint, digest) not in aliases:
            del aliases[next(iter(aliases))]
        aliases[endpoint, digest] = key

    def _shed(self, key: str, reason: str) -> Resolution:
        self.metrics.shed.inc()
        retry_after = self.retry_after_seconds()
        _log.warning(f"request shed: {reason}",
                     extra={"key": key, "retry_after": retry_after})
        return Resolution(key=key, status=STATUS_SHED, backend="pipeline",
                          error=reason, retry_after=retry_after)

    # -- workers ------------------------------------------------------

    async def _worker(self) -> None:
        while True:
            entry = await self._queue.get()
            batch = [entry]
            if self.config.batch_window > 0:
                await asyncio.sleep(self.config.batch_window)
            while len(batch) < self.config.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                await self._run_batch(batch)
            finally:
                for _ in batch:
                    self._queue.task_done()

    async def _run_batch(self, batch: list[_Entry]) -> None:
        """One JobRunner submission for up to ``max_batch`` misses."""
        runner = self._runner_factory()
        specs = [entry.spec for entry in batch]
        loop = asyncio.get_running_loop()
        # A batch serves up to max_batch independent requests but is one
        # unit of work; its span joins the first admitted request's
        # trace (re-entered by hand — executors don't copy contextvars).
        ctx = next((e.ctx for e in batch if e.ctx is not None), None)

        def call() -> list[Resolution]:
            with use_context(ctx):
                with span("serve.batch", batch_size=len(batch),
                          keys=[e.key for e in batch]):
                    return runner.resolve(specs)

        started = perf_counter()
        try:
            # Clock-free timeout forcing: an armed fault plan can declare
            # this batch expired without waiting out the real budget.
            if fault_hooks.forced_timeout("serve.batch_timeout",
                                          key=batch[0].key):
                raise asyncio.TimeoutError
            resolutions = await asyncio.wait_for(
                loop.run_in_executor(self._executor, call),
                timeout=self.config.request_timeout)
        except asyncio.TimeoutError:
            _log.warning("batch timed out",
                         extra={"batch_size": len(batch),
                                "timeout": self.config.request_timeout})
            self._fail(batch, STATUS_TIMEOUT,
                       f"no result within {self.config.request_timeout}s")
            return
        except Exception as exc:  # runner bug: fail the batch, not the server
            _log.error("batch failed",
                       extra={"batch_size": len(batch), "error": str(exc)})
            self._fail(batch, STATUS_FAILED, f"{type(exc).__name__}: {exc}")
            return
        elapsed = perf_counter() - started
        # A batch counts as a breaker failure only when it served
        # nobody; one good resolution proves the backend still works.
        if any(r.result is not None for r in resolutions):
            self.breaker.record_success()
        else:
            self.breaker.record_failure()
        self._observe_drain(len(batch), elapsed)
        default_registry().histogram(
            "repro_serve_batch_seconds",
            "Wall-clock latency of one JobRunner batch submission."
        ).observe(elapsed)
        self._finish(batch, resolutions)

    # -- adaptive Retry-After -----------------------------------------

    def _observe_drain(self, completed: int, elapsed: float) -> None:
        """Fold one completed batch into the drain-rate EMA."""
        if completed <= 0 or elapsed <= 0:
            return
        rate = completed / elapsed
        if self._drain_rate <= 0:
            self._drain_rate = rate
        else:
            self._drain_rate = (_DRAIN_EMA_ALPHA * rate
                                + (1 - _DRAIN_EMA_ALPHA) * self._drain_rate)

    def retry_after_seconds(self) -> float:
        """Back-off advice for shed requests, from observed drain rate.

        Estimates how long the current backlog (plus the shed request
        itself) takes to drain at the EMA rate, clamped to
        ``[RETRY_AFTER_MIN, RETRY_AFTER_MAX]``.  Before any batch has
        completed there is no observation to derive from, so the
        configured static ``retry_after`` is advertised unchanged.
        """
        if self._drain_rate <= 0:
            return self.config.retry_after
        backlog = self._queue.qsize() + 1
        estimate = backlog / self._drain_rate
        return min(RETRY_AFTER_MAX, max(RETRY_AFTER_MIN, estimate))

    def _fail(self, batch: list[_Entry], status: str, error: str) -> None:
        """The whole batch failed as one: a breaker failure."""
        self.breaker.record_failure()
        self._finish(batch, [
            Resolution(key=entry.key, status=status, backend="pipeline",
                       error=error) for entry in batch])

    def _finish(self, batch: list[_Entry],
                resolutions: list[Resolution]) -> None:
        for entry, resolution in zip(batch, resolutions):
            if resolution.status == STATUS_TIMEOUT:
                self.metrics.timeouts.inc()
            elif resolution.result is None:
                self.metrics.failures.inc()
            self._inflight.pop(entry.key, None)
            if not entry.future.done():
                entry.future.set_result(resolution)
