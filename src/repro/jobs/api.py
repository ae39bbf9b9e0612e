"""The job runner: cache lookup, deduplication, execution, manifest.

:class:`JobRunner` is the facade the sweeps, figures, the ``batch`` CLI
and the serving pipeline submit through.  :meth:`JobRunner.resolve`
answers every spec with one :class:`~repro.jobs.resolution.Resolution`,
in submission order, and never raises; for every batch it:

1. resolves keys against the in-memory memo, then the on-disk cache
   (``hit``);
2. executes the remaining misses, deduplicated by content key (a run
   shared by two figures — or by a sweep point and an oracle re-run —
   simulates once), resubmitting host-transient failures from the
   **one** backoff retry loop;
3. memoizes and stores fresh results and records one manifest /
   run-registry row per submitted spec, built from its resolution.

:meth:`JobRunner.run` is ``resolve`` plus one aggregated
:class:`~repro.errors.JobError` if any spec was not served.

All results — hits and fresh computations alike — pass through the
serialize/deserialize round trip of :mod:`repro.jobs.results`, so the
cached, pooled, and serial paths are exercised identically and parity
is a structural property, not an accident of which path ran.
"""

from __future__ import annotations

import time
from datetime import datetime, timedelta, timezone
from typing import Any, Sequence

from repro.errors import JobError
from repro.fdt.runner import AppRunResult
from repro.jobs import backoff
from repro.jobs.cache import ResultCache
from repro.jobs.executor import execute_jobs
from repro.jobs.manifest import RunManifest
from repro.jobs.resolution import STATUS_HIT, STATUS_TIMEOUT, Resolution
from repro.jobs.results import app_result_from_dict
from repro.jobs.spec import SCHEMA_VERSION, JobSpec
from repro.obs import get_logger
from repro.obs.registry import Counter, default_registry
from repro.obs import runreg
from repro.obs.tracing import current_context, span

_log = get_logger("jobs")


def _fdt_decisions(result: dict | None) -> list[dict[str, Any]]:
    """Per-kernel threading decisions out of a serialized result dict."""
    if not result:
        return []
    decisions: list[dict[str, Any]] = []
    for info in result.get("kernel_infos", []):
        decision: dict[str, Any] = {
            "kernel": info.get("kernel_name", ""),
            "threads": info.get("threads"),
        }
        if info.get("estimates") is not None:
            decision["estimates"] = info["estimates"]
        decisions.append(decision)
    return decisions


def _cache_counter() -> Counter:
    return default_registry().counter(
        "repro_jobs_cache_total",
        "Result lookups by outcome (memo and disk hits vs misses).",
        label="outcome")


def cache_hit(key: str, entry: dict | None) -> Resolution | None:
    """The one "is this cache entry a result" check.

    ``entry`` is what :meth:`ResultCache.get` (batch path) or
    :meth:`ResultCache.get_or_none` (serving fast path, ``/v1/result``)
    returned.  One that parses as JSON but does not decode as a result
    is a miss like any other corruption — recomputed and overwritten,
    never served.  The proving decode rides along
    (:attr:`Resolution.app`), so a warm hit pays for it once.
    """
    if entry is None:
        return None
    try:
        app = app_result_from_dict(entry)
    except Exception:
        return None
    return Resolution(key=key, status=STATUS_HIT, backend="cache",
                      result=entry, app=app)


def raise_unserved(specs: Sequence[JobSpec],
                   resolutions: Sequence[Resolution]) -> None:
    """Raise one aggregated :class:`JobError` unless every spec was served."""
    failures = [
        f"{spec.label}: "
        + (f"timed out ({r.error})" if r.status == STATUS_TIMEOUT
           else r.error)
        for spec, r in zip(specs, resolutions) if not r.ok]
    if failures:
        timeouts = sum(r.status == STATUS_TIMEOUT for r in resolutions)
        raise JobError(f"{len(failures)} job(s) failed"
                       + (f" ({timeouts} timed out)" if timeouts else "")
                       + ": " + "; ".join(failures))


class JobRunner:
    """Executes job specs through the memo -> cache -> backend chain.

    Args:
        cache: on-disk result cache, or ``None`` for memo-only operation
            (results are still deduplicated within this runner's life).
        jobs: worker processes; ``1`` (the default) runs in-process.
        timeout: per-job seconds before a pooled job is abandoned.
        manifest: manifest to append to (a fresh one when omitted).
        trace_dir: when given, every *computed* job records a trace
            (:mod:`repro.trace`) and writes its artifacts under
            ``trace_dir/<job key>/``; the manifest entry carries the
            path.  Cache and memo hits are never re-simulated, so they
            produce no trace — use ``cache=None`` to trace everything.

    Raises:
        JobError: if ``jobs`` is below 1 or ``timeout`` is not positive.
    """

    def __init__(self, cache: ResultCache | None = None, jobs: int = 1,
                 timeout: float | None = None,
                 manifest: RunManifest | None = None,
                 trace_dir: str | None = None) -> None:
        if jobs < 1:
            raise JobError(f"jobs must be >= 1, got {jobs}")
        if timeout is not None and timeout <= 0:
            raise JobError(f"timeout must be positive, got {timeout}")
        self.cache = cache
        self.jobs = jobs
        self.timeout = timeout
        self.manifest = manifest if manifest is not None else RunManifest()
        self.trace_dir = trace_dir
        #: Provenance rows of every resolved spec, under ``<cache
        #: root>/obs`` so ``repro obs`` finds them beside the results.
        self.run_registry = runreg.shared_registry(
            cache.root / "obs" if cache is not None
            else runreg.default_runreg_dir())
        self._memo: dict[str, dict] = {}
        self._cache_write_failed = False

    def run_one(self, spec: JobSpec) -> AppRunResult:
        """Resolve a single spec (see :meth:`run`)."""
        return self.run([spec])[0]

    def run(self, specs: Sequence[JobSpec]) -> list[AppRunResult]:
        """:meth:`resolve`, then :func:`raise_unserved`, then decode.

        Raises:
            JobError: one aggregated error naming every failed or
                timed-out spec.  Everything :meth:`resolve` did stands:
                the manifest records every spec and the healthy ones are
                memoized and cached.
        """
        with span("jobs.run", specs=len(specs)):
            resolutions = self.resolve(specs)
            raise_unserved(specs, resolutions)
            return [r.app_result() for r in resolutions]

    def resolve(self, specs: Sequence[JobSpec]) -> list[Resolution]:
        """Resolve every spec to its own resolution, never raising.

        One resolution per spec, in submission order, and one manifest
        row per spec built from it.  One failed or timed-out spec does
        not poison the rest of the batch.  A spec repeated within the
        batch resolves after its first occurrence exactly as it would in
        a second call: a memo hit if that one was served, otherwise the
        same failure.
        """
        with span("jobs.resolve", specs=len(specs)):
            keys = [spec.key() for spec in specs]
            out: dict[int, Resolution] = {}
            leaders: dict[str, int] = {}  # key -> index of its pending miss
            for i, (key, spec) in enumerate(zip(keys, specs)):
                if key in leaders:
                    continue  # resolved below, after its leader
                resolution = self._lookup(key)
                if resolution is None:
                    leaders[key] = i
                else:
                    out[i] = self._record(spec, resolution)
            computed = self._compute(
                [(key, specs[i]) for key, i in leaders.items()])
            out.update((i, computed[key]) for key, i in leaders.items())
            for i, (key, spec) in enumerate(zip(keys, specs)):
                if i not in out:
                    leader = out[leaders[key]]
                    hit = self._lookup(key) if leader.ok else None
                    out[i] = self._record(spec, hit or leader)
            return [out[i] for i in range(len(specs))]

    # -- internals ---------------------------------------------------------

    def _lookup(self, key: str) -> Resolution | None:
        """Memo, then cache: the hit for ``key``, or ``None``."""
        resolution = None
        if key in self._memo:
            resolution = Resolution(key=key, status=STATUS_HIT,
                                    backend="memo", result=self._memo[key])
        elif self.cache is not None:
            resolution = cache_hit(key, self.cache.get(key))
            if resolution is not None and resolution.result is not None:
                self._memo[key] = resolution.result
        _cache_counter().inc("miss" if resolution is None else "hit")
        return resolution

    def _compute(self, misses: list[tuple[str, JobSpec]]
                 ) -> dict[str, Resolution]:
        """Execute misses; memoize, cache, and record each resolution.

        The only retry loop between a worker and the wire.  Failures
        that look host-transient (worker crash, injected or real I/O
        error — :attr:`Resolution.transient`) are resubmitted up to
        :data:`~repro.jobs.backoff.RETRY_BUDGET` extra rounds, each round
        paced by exponential backoff with deterministic jitter;
        deterministic simulation failures are never retried (they would
        fail identically and burn the budget for nothing).
        """
        retry_metric = default_registry().counter(
            "repro_jobs_retries_total",
            "Backoff-retried transient job failures by outcome.",
            label="outcome")
        by_key: dict[str, Resolution] = {}
        pending = list(misses)
        budget = backoff.RETRY_BUDGET
        for attempt in range(budget + 1):
            if not pending:
                break
            if attempt > 0:
                # One sleep per round: the longest of the pending keys'
                # deterministic schedules (per-key sleeps would stack).
                delay = max(backoff.backoff_delay(key, attempt)
                            for key, _ in pending)
                _log.warning("retrying transient failures",
                             extra={"jobs": len(pending),
                                    "attempt": attempt,
                                    "delay": round(delay, 4)})
                time.sleep(delay)
            resolutions = execute_jobs([spec for _, spec in pending],
                                       jobs=self.jobs, timeout=self.timeout,
                                       trace_dir=self.trace_dir)
            retry_next: list[tuple[str, JobSpec]] = []
            for (key, spec), resolution in zip(pending, resolutions):
                if (not resolution.ok and resolution.transient
                        and attempt < budget):
                    retry_metric.inc("attempt")
                    with span("jobs.retry", key=key, attempt=attempt + 1,
                              error=resolution.error):
                        pass
                    retry_next.append((key, spec))
                    continue
                if attempt > 0:
                    retry_metric.inc("recovered" if resolution.ok
                                     else "exhausted")
                if resolution.result is not None:
                    self._memo[key] = resolution.result
                    self._store(key, spec.to_dict(), resolution.result)
                by_key[key] = self._record(spec, resolution)
            pending = retry_next
        return by_key

    def _store(self, key: str, spec_dict: dict, result: dict) -> None:
        """Cache a result, degrading gracefully on an unwritable store.

        A failed cache write costs only warmth, never the job: the
        result is already memoized, so the batch completes and only
        future processes pay the recompute.  Warned once per runner.
        """
        if self.cache is None:
            return
        try:
            self.cache.put(key, spec_dict, result)
        except OSError as exc:
            _cache_counter().inc("write-error")
            if not self._cache_write_failed:
                self._cache_write_failed = True
                _log.warning(
                    "result cache unwritable; results stay in-memory only",
                    extra={"key": key, "error": str(exc)})

    def _record(self, spec: JobSpec, resolution: Resolution) -> Resolution:
        """The single bookkeeping point for every resolved spec.

        One record, built from the resolution, goes to the manifest and
        the run registry, next to the resolution metric — so the views
        can never disagree with each other or with what the caller was
        told.  Returns the resolution for the caller to hand on.
        """
        finished = datetime.now(timezone.utc)
        started = finished - timedelta(seconds=resolution.wall_time)
        default_registry().counter(
            "repro_jobs_resolutions_total",
            "Job resolutions by disposition.", label="status"
        ).inc(resolution.status)
        ctx = current_context()
        record = runreg.RunRecord(
            key=resolution.key,
            workload=spec.workload.label,
            policy=spec.policy.label,
            status=resolution.status,
            backend=resolution.backend,
            wall_time=resolution.wall_time,
            started_at=started.isoformat(),
            finished_at=finished.isoformat(),
            schema_version=SCHEMA_VERSION,
            host=runreg.host_fingerprint(),
            trace_id=ctx.trace_id if ctx is not None else "",
            trace_path=resolution.trace_path,
            error=resolution.error,
            fdt=_fdt_decisions(resolution.result),
        )
        self.manifest.record(record)
        self.run_registry.append(record)
        _log.debug("resolved", extra={
            "key": resolution.key, "status": resolution.status,
            "backend": resolution.backend,
            "wall_time": round(resolution.wall_time, 6)})
        return resolution
