"""Serving configuration: every knob of the experiment server.

One frozen dataclass carries the whole surface — network endpoint,
admission control, the worker pool, the jobs backend passed through to
:class:`~repro.jobs.JobRunner`, and operational outputs — so a server
is fully described by one value (easy to log, easy to build in tests).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ServeError

#: Defaults of the client side (:mod:`repro.serve.client`,
#: :mod:`repro.serve.loadgen`), kept here so ``repro loadgen`` reads
#: them without importing either module.
CLIENT_HOST = "127.0.0.1"
CLIENT_PORT = 8080
CLIENT_TIMEOUT = 60.0
LOADGEN_RPS = 20.0
LOADGEN_DURATION = 2.0
LOADGEN_ENDPOINT = "/v1/run"


@dataclass(frozen=True, slots=True)
class ServeConfig:
    """Knobs of one :class:`~repro.serve.server.ExperimentServer`."""

    #: Bind address.  ``port=0`` asks the OS for an ephemeral port; the
    #: bound port is reported by ``ExperimentServer.port`` after start.
    host: str = "127.0.0.1"
    port: int = 0

    # -- admission control ---------------------------------------------
    #: Maximum cache-miss requests queued for simulation.  When the
    #: queue is full new misses are shed with a 429 and ``Retry-After``
    #: instead of queuing without bound.  Hits, coalesced followers,
    #: and read-only endpoints are never queued, so they are never shed.
    queue_depth: int = 64

    # -- worker pool ---------------------------------------------------
    #: Concurrent simulation batches (asyncio workers, each running one
    #: :class:`~repro.jobs.JobRunner` call in a thread at a time).
    workers: int = 2
    #: Wall-clock bound on one simulation batch; requests in a batch
    #: that exceeds it are answered 504 (the underlying computation is
    #: not interruptible — it keeps running and still warms the cache).
    request_timeout: float | None = None

    # -- jobs backend (passed through to JobRunner) --------------------
    #: Worker *processes* per batch; 1 simulates in the worker thread.
    jobs: int = 1
    #: Per-job timeout inside the process pool (``jobs > 1`` only).
    job_timeout: float | None = None
    #: Result-cache directory (``None``: the jobs default) — ignored
    #: when ``no_cache`` is set.
    cache_dir: str | None = None
    #: Disable the on-disk result cache entirely (every request
    #: simulates; single-flight coalescing still applies).
    no_cache: bool = False

    # -- circuit breaker -----------------------------------------------
    #: Consecutive totally-failed batches that trip the pipeline's
    #: circuit breaker to fast-shed (:mod:`repro.serve.breaker`).
    breaker_threshold: int = 5
    #: Shed decisions while open before the breaker half-opens to
    #: probe the backend with one real batch.
    breaker_probe_after: int = 8

    # -- operational outputs -------------------------------------------
    #: When set, the accumulated run manifest is flushed here on drain.
    manifest_path: str | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ServeError("port must be in 0..65535")
        if self.queue_depth < 1:
            raise ServeError("queue_depth must be >= 1")
        if self.workers < 1:
            raise ServeError("workers must be >= 1")
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise ServeError("request_timeout must be positive")
        if self.jobs < 1:
            raise ServeError("jobs must be >= 1")
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ServeError("job_timeout must be positive")
        if self.breaker_threshold < 1:
            raise ServeError("breaker_threshold must be >= 1")
        if self.breaker_probe_after < 1:
            raise ServeError("breaker_probe_after must be >= 1")
