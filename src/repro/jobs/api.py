"""The job runner: cache lookup, deduplication, execution, manifest.

:class:`JobRunner` is the facade the sweeps, figures, and the ``batch``
CLI submit through.  For every batch it:

1. deduplicates specs by content key (a run shared by two figures — or
   by a sweep point and an oracle re-run — simulates once);
2. resolves keys against the in-memory memo, then the on-disk cache;
3. executes the remaining misses on the configured backend;
4. stores fresh results, records a manifest entry per job, and returns
   results **in submission order**.

All results — hits and fresh computations alike — pass through the
serialize/deserialize round trip of :mod:`repro.jobs.results`, so the
cached, pooled, and serial paths are exercised identically and parity
is a structural property, not an accident of which path ran.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Any, Sequence

from repro.errors import JobError
from repro.fdt.runner import AppRunResult
from repro.jobs.backoff import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_BACKOFF_CAP,
    DEFAULT_RETRY_BUDGET,
    backoff_delay,
)
from repro.jobs.cache import ResultCache
from repro.jobs.executor import STATUS_TIMEOUT, execute_jobs
from repro.jobs.manifest import RunManifest
from repro.jobs.preflight import PreflightVerdict, preflight_key, run_preflight
from repro.jobs.results import app_result_from_dict
from repro.jobs.spec import SCHEMA_VERSION, JobSpec
from repro.obs import get_logger
from repro.obs.registry import default_registry
from repro.obs.runreg import RunRecord, RunRegistry, host_fingerprint
from repro.obs.tracing import current_context, span

#: Resolution statuses (manifest statuses plus ``preflight-failed``).
RESOLVED_HIT = "hit"
RESOLVED_COMPUTED = "computed"
RESOLVED_TIMEOUT = STATUS_TIMEOUT
RESOLVED_FAILED = "failed"
RESOLVED_PREFLIGHT = "preflight-failed"

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


@dataclass(frozen=True, slots=True)
class JobResolution:
    """Per-spec outcome of :meth:`JobRunner.resolve` (never raises).

    ``result`` is the serialized result dict when the job succeeded
    (status ``hit`` or ``computed``) and ``None`` otherwise.
    """

    key: str
    #: ``hit`` | ``computed`` | ``timeout`` | ``failed`` |
    #: ``preflight-failed``.
    status: str
    #: ``memo`` | ``cache`` | ``serial`` | ``pool`` | ``serial-fallback``
    #: | ``static``.
    backend: str
    result: dict | None
    error: str = ""
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return self.result is not None

    def app_result(self) -> AppRunResult:
        """Deserialize the result (call only when :attr:`ok`)."""
        if self.result is None:
            raise JobError(f"job {self.key} has no result: {self.status}"
                           + (f" ({self.error})" if self.error else ""))
        return app_result_from_dict(self.result)


class JobRunner:
    """Executes job specs through the memo -> cache -> backend chain.

    Args:
        cache: on-disk result cache, or ``None`` for memo-only operation
            (results are still deduplicated within this runner's life).
        jobs: worker processes; ``1`` (the default) runs in-process.
        timeout: per-job seconds before a pooled job is abandoned.
        retries: extra pool rounds for jobs whose worker crashed.
        manifest: manifest to append to (a fresh one when omitted).
        trace_dir: when given, every *computed* job records a trace
            (:mod:`repro.trace`) and writes its artifacts under
            ``trace_dir/<job key>/``; the manifest entry carries the
            path.  Cache and memo hits are never re-simulated, so they
            produce no trace — use ``cache=None`` to trace everything.
        preflight: statically verify each workload before dispatch
            (:mod:`repro.jobs.preflight`) and refuse to execute specs
            with provable hangs or lock faults.  Verdicts are cached
            alongside results, so a sweep pays for each distinct
            workload once.  Cache and memo hits skip the gate — they
            already completed once.
        run_registry: persistent provenance registry
            (:mod:`repro.obs.runreg`) appended to for every resolved
            spec.  Defaults to ``<cache root>/obs`` (or the global
            default location when running cache-less), so ``repro obs``
            finds the rows next to the results they describe.
        retry_budget: extra submissions for jobs whose failure looks
            host-transient (worker crash, I/O error — never a
            deterministic :class:`~repro.errors.ReproError` from the
            simulation), paced by exponential backoff with
            deterministic jitter (:mod:`repro.jobs.backoff`).
        backoff_base: first retry delay in seconds (doubles per round,
            capped at ``backoff_cap``).
    """

    def __init__(self, cache: ResultCache | None = None, jobs: int = 1,
                 timeout: float | None = None, retries: int = 1,
                 manifest: RunManifest | None = None,
                 trace_dir: str | None = None,
                 preflight: bool = False,
                 run_registry: RunRegistry | None = None,
                 retry_budget: int = DEFAULT_RETRY_BUDGET,
                 backoff_base: float = DEFAULT_BACKOFF_BASE,
                 backoff_cap: float = DEFAULT_BACKOFF_CAP) -> None:
        self.cache = cache
        self.jobs = max(1, jobs)
        self.timeout = timeout
        self.retries = retries
        self.manifest = manifest if manifest is not None else RunManifest()
        self.trace_dir = trace_dir
        self.preflight = preflight
        self.retry_budget = max(0, retry_budget)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._run_registry = run_registry
        self._host: dict | None = None
        self._memo: dict[str, dict] = {}
        self._preflight_memo: dict[str, PreflightVerdict] = {}
        self._cache_write_failed = False

    @property
    def run_registry(self) -> RunRegistry:
        """Provenance registry (default: ``<cache root>/obs``)."""
        if self._run_registry is None:
            root = (self.cache.root / "obs"
                    if self.cache is not None else None)
            self._run_registry = RunRegistry(root)
        return self._run_registry

    def run_one(self, spec: JobSpec) -> AppRunResult:
        """Resolve a single spec (see :meth:`run`)."""
        return self.run([spec])[0]

    def run(self, specs: Sequence[JobSpec]) -> list[AppRunResult]:
        """Resolve every spec, returning results in submission order.

        Raises:
            JobError: if any job failed or timed out in every attempt;
                the manifest still records every entry.
        """
        with span("jobs.run", specs=len(specs)):
            keys = [spec.key() for spec in specs]
            misses = self._lookup(keys, specs)
            if misses:
                if self.preflight:
                    self._gate(misses)
                outcomes = self._compute(misses)
                self._raise_on_failure(misses, outcomes)
            return [app_result_from_dict(self._memo[key]) for key in keys]

    def resolve(self, specs: Sequence[JobSpec]) -> list[JobResolution]:
        """Resolve every spec to a per-spec outcome, never raising.

        The tolerant sibling of :meth:`run`, built for callers that
        answer each spec independently (the serving pipeline): one
        timed-out or preflight-rejected spec does not poison the rest of
        the batch, and the caller sees *which* status each spec reached
        instead of one aggregated :class:`~repro.errors.JobError`.
        Manifest recording, memoization, and caching are identical to
        :meth:`run`.
        """
        with span("jobs.resolve", specs=len(specs)):
            keys = [spec.key() for spec in specs]
            misses = self._lookup(keys, specs)
            by_key: dict[str, JobResolution] = {}
            dispatch: list[tuple[str, JobSpec]] = []
            for key, spec in misses:
                if self.preflight:
                    verdict = self._preflight_verdict(spec)
                    if not verdict.ok:
                        error = "; ".join(verdict.fatal)
                        self._record(key, spec, status=RESOLVED_PREFLIGHT,
                                     backend="static", error=error)
                        by_key[key] = JobResolution(
                            key=key, status=RESOLVED_PREFLIGHT,
                            backend="static", result=None, error=error)
                        continue
                dispatch.append((key, spec))
            if dispatch:
                for key, outcome in self._compute(dispatch).items():
                    if outcome.ok:
                        by_key[key] = JobResolution(
                            key=key, status=RESOLVED_COMPUTED,
                            backend=outcome.backend, result=outcome.result,
                            wall_time=outcome.wall_time)
                    else:
                        by_key[key] = JobResolution(
                            key=key, status=outcome.status,
                            backend=outcome.backend, result=None,
                            error=outcome.error, wall_time=outcome.wall_time)
            out = []
            for key in keys:
                resolution = by_key.get(key)
                if resolution is None:  # memo or cache hit
                    resolution = JobResolution(
                        key=key, status=RESOLVED_HIT, backend="cache",
                        result=self._memo[key])
                out.append(resolution)
            return out

    # -- internals ---------------------------------------------------------

    def _lookup(self, keys: Sequence[str],
                specs: Sequence[JobSpec]) -> list[tuple[str, JobSpec]]:
        """Memo/cache phase: record hits, return deduplicated misses."""
        cache_lookups = default_registry().labeled_counter(
            "repro_jobs_cache_total",
            "Result lookups by outcome (memo and disk hits vs misses).",
            "outcome")
        misses: list[tuple[str, JobSpec]] = []
        seen: set[str] = set()
        for key, spec in zip(keys, specs):
            if key in self._memo:
                cache_lookups.inc("hit")
                self._record(key, spec, status="hit", backend="memo")
                continue
            if key in seen:
                continue
            cached = self._load_cached(key)
            if cached is not None:
                cache_lookups.inc("hit")
                self._memo[key] = cached
                self._record(key, spec, status="hit", backend="cache")
            else:
                cache_lookups.inc("miss")
                seen.add(key)
                misses.append((key, spec))
        return misses

    def _gate(self, misses: list[tuple[str, JobSpec]]) -> None:
        """Refuse to dispatch specs the static analyzer proves broken.

        Runs before any miss executes, so one poisoned spec stops the
        whole batch instead of wasting the healthy jobs' work on a
        result set that can never complete.
        """
        rejected: list[str] = []
        for key, spec in misses:
            verdict = self._preflight_verdict(spec)
            if not verdict.ok:
                self._record(key, spec, status="preflight-failed",
                             backend="static",
                             error="; ".join(verdict.fatal))
                rejected.append(
                    f"{spec.label}: {'; '.join(verdict.fatal)}")
        if rejected:
            raise JobError(
                f"{len(rejected)} job(s) failed pre-flight verification: "
                + " | ".join(rejected))

    def _preflight_verdict(self, spec: JobSpec) -> PreflightVerdict:
        """Memo -> cache -> analyze, mirroring the result chain."""
        verdict = self._preflight_lookup(spec)
        default_registry().labeled_counter(
            "repro_jobs_preflight_total",
            "Pre-flight static verifications by verdict.",
            "verdict").inc("ok" if verdict.ok else "rejected")
        return verdict

    def _preflight_lookup(self, spec: JobSpec) -> PreflightVerdict:
        pkey = preflight_key(spec)
        verdict = self._preflight_memo.get(pkey)
        if verdict is not None:
            return verdict
        if self.cache is not None:
            cached = self.cache.get(pkey)
            if cached is not None:
                try:
                    verdict = PreflightVerdict.from_dict(cached)
                except (KeyError, TypeError, ValueError):
                    verdict = None  # corrupt entry: re-analyze
            if verdict is not None:
                self._preflight_memo[pkey] = verdict
                return verdict
        verdict = run_preflight(spec)
        self._preflight_memo[pkey] = verdict
        self._store(pkey, {"preflight": spec.workload.to_dict()},
                    verdict.to_dict())
        return verdict

    def _load_cached(self, key: str) -> dict | None:
        """Cache lookup that also validates the entry deserializes."""
        if self.cache is None:
            return None
        data = self.cache.get(key)
        if data is None:
            return None
        try:
            app_result_from_dict(data)
        except Exception:
            # Parses as JSON but not as a result: corrupt -> recompute.
            return None
        return data

    def _compute(self, misses: list[tuple[str, JobSpec]]) -> dict:
        """Execute misses; memoize, cache, and record each outcome.

        Failures that look host-transient (worker crash, injected or
        real I/O error — :attr:`JobOutcome.transient`) are resubmitted
        up to ``retry_budget`` extra rounds, each round paced by
        exponential backoff with deterministic jitter; deterministic
        simulation failures are never retried (they would fail
        identically and burn the budget for nothing).

        Returns the :class:`~repro.jobs.executor.JobOutcome` per key so
        callers choose their own failure policy (:meth:`run` raises,
        :meth:`resolve` reports per spec).
        """
        retry_metric = default_registry().labeled_counter(
            "repro_jobs_retries_total",
            "Backoff-retried transient job failures by outcome.",
            "outcome")
        by_key: dict[str, Any] = {}
        pending = list(misses)
        for attempt in range(self.retry_budget + 1):
            if not pending:
                break
            if attempt > 0:
                # One sleep per round: the longest of the pending keys'
                # deterministic schedules (per-key sleeps would stack).
                delay = max(backoff_delay(key, attempt,
                                          base=self.backoff_base,
                                          cap=self.backoff_cap)
                            for key, _ in pending)
                _log.warning("retrying transient failures",
                             extra={"jobs": len(pending),
                                    "attempt": attempt,
                                    "delay": round(delay, 4)})
                time.sleep(delay)
            outcomes = execute_jobs([spec for _, spec in pending],
                                    jobs=self.jobs, timeout=self.timeout,
                                    retries=self.retries,
                                    trace_dir=self.trace_dir)
            retry_next: list[tuple[str, JobSpec]] = []
            for (key, spec), outcome in zip(pending, outcomes):
                if (not outcome.ok and outcome.transient
                        and attempt < self.retry_budget):
                    by_key[key] = outcome  # kept in case it never recovers
                    retry_metric.inc("attempt")
                    with span("jobs.retry", key=key, attempt=attempt + 1,
                              error=outcome.error):
                        pass
                    retry_next.append((key, spec))
                    continue
                if attempt > 0 and outcome.ok:
                    retry_metric.inc("recovered")
                elif attempt > 0 and not outcome.ok:
                    retry_metric.inc("exhausted")
                by_key[key] = outcome
                self._finish_outcome(key, spec, outcome)
            pending = retry_next
        return by_key

    def _finish_outcome(self, key: str, spec: JobSpec, outcome: Any) -> None:
        """Memoize, cache, and record one terminal outcome."""
        if outcome.ok and outcome.result is not None:
            self._memo[key] = outcome.result
            self._store(key, spec.to_dict(), outcome.result)
            self._record(key, spec, status="computed",
                         backend=outcome.backend,
                         wall_time=outcome.wall_time,
                         trace_path=outcome.trace_path)
        else:
            self._record(key, spec, status=outcome.status,
                         backend=outcome.backend,
                         wall_time=outcome.wall_time,
                         error=outcome.error)

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
            default_registry().labeled_counter(
                "repro_jobs_cache_total",
                "Result lookups by outcome (memo and disk hits vs misses).",
                "outcome").inc("write-error")
            if not self._cache_write_failed:
                self._cache_write_failed = True
                _log.warning(
                    "result cache unwritable; results stay in-memory only",
                    extra={"key": key, "error": str(exc)})

    def _raise_on_failure(self, misses: list[tuple[str, JobSpec]],
                          outcomes: dict) -> None:
        """Aggregate failed outcomes into one JobError, timeouts named."""
        failures: list[str] = []
        timeouts = 0
        for key, spec in misses:
            outcome = outcomes[key]
            if outcome.ok and outcome.result is not None:
                continue
            if outcome.status == STATUS_TIMEOUT:
                timeouts += 1
                failures.append(f"{spec.label}: timed out ({outcome.error})")
            else:
                failures.append(f"{spec.label}: {outcome.error}")
        if failures:
            detail = f"{len(failures)} job(s) failed"
            if timeouts:
                detail += f" ({timeouts} timed out)"
            raise JobError(detail + ": " + "; ".join(failures))

    def _record(self, key: str, spec: JobSpec, status: str, backend: str,
                wall_time: float = 0.0, error: str = "",
                trace_path: str = "") -> None:
        """The single bookkeeping point for every resolved spec.

        One record goes to the manifest and the run registry, next to
        the resolution metric — so the three views can never disagree
        about what happened.
        """
        finished = datetime.now(timezone.utc)
        started = finished - timedelta(seconds=wall_time)
        default_registry().labeled_counter(
            "repro_jobs_resolutions_total",
            "Job resolutions by disposition.", "status").inc(status)
        if self._host is None:
            self._host = host_fingerprint()
        ctx = current_context()
        record = RunRecord(
            key=key,
            workload=spec.workload.label,
            policy=spec.policy.label,
            status=status,
            backend=backend,
            wall_time=wall_time,
            started_at=started.isoformat(),
            finished_at=finished.isoformat(),
            schema_version=SCHEMA_VERSION,
            host=self._host,
            trace_id=ctx.trace_id if ctx is not None else "",
            trace_path=trace_path,
            error=error,
            fdt=_fdt_decisions(self._memo.get(key)),
        )
        self.manifest.record(record)
        self.run_registry.append(record)
        _log.debug("resolved", extra={"key": key, "status": status,
                                      "backend": backend,
                                      "wall_time": round(wall_time, 6)})
