"""The chaos harness: run a fault plan against real code, judge recovery.

This is what ``repro chaos`` executes.  A run has three parts:

1. **Baseline** — every spec is resolved once, fault-free, in a private
   cache directory, recording the simulated cycle count per content
   key.  The simulator is deterministic, so these are *the* answers.
2. **Injected run** — the plan is armed
   (:func:`repro.faults.injector.injected`) and the same specs are
   pushed through the real execution path: a :class:`~repro.jobs.JobRunner`
   batch (``mode=batch``) or a live :class:`~repro.serve.ServerThread`
   spoken to over real sockets (``mode=serve``).
3. **Invariant judgment** — the report records every injected firing
   and checks the recovery contract:

   * ``no-unhandled-exceptions`` — the batch/server surface never let
     an injected fault escape as a crash;
   * ``every-spec-accounted-once`` — each submitted spec produced
     exactly one terminal answer (nothing lost, nothing doubled);
   * ``cache-never-serves-corrupt`` — every entry still readable from
     the result cache parses and matches the baseline (corrupt entries
     must have been quarantined, not served);
   * ``sim-cycles-bit-identical`` — every result actually served has
     cycle counts equal to the fault-free baseline, bit for bit;
   * ``server-stays-responsive`` (serve mode) — ``/healthz`` still
     answers after the fault storm.

A report judges *correctness under faults*, not availability: a plan
vicious enough to exhaust every retry budget may legitimately leave
specs in ``failed`` status — that is visible in ``statuses`` — but a
wrong answer, a lost spec, or a crash is always an invariant violation.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro.errors import FaultError, JobError, ServeClientError, ServeRequestError
from repro.faults.config import (
    CHAOS_JOBS,
    CHAOS_SCALE,
    CHAOS_THREADS,
    CHAOS_WORKLOADS,
    SERVE_ATTEMPTS,
)
from repro.faults.injector import FaultInjector, injected
from repro.faults.plan import FaultPlan, FaultRule
from repro.jobs import (
    JobRunner,
    JobSpec,
    PolicySpec,
    ResultCache,
    WorkloadRef,
    app_result_from_dict,
)
from repro.obs import get_logger
from repro.sim.config import MachineConfig

#: Bump on any incompatible change to the report layout.
CHAOS_SCHEMA = "repro-chaos/2"

INV_NO_UNHANDLED = "no-unhandled-exceptions"
INV_ACCOUNTED = "every-spec-accounted-once"
INV_NO_CORRUPT = "cache-never-serves-corrupt"
INV_CYCLES = "sim-cycles-bit-identical"
INV_RESPONSIVE = "server-stays-responsive"

_log = get_logger("faults")


@dataclass(frozen=True, slots=True)
class ChaosInvariant:
    """One judged invariant of a chaos run."""

    name: str
    ok: bool
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


@dataclass(slots=True)
class ChaosReport:
    """Everything a chaos run observed, plus the verdict."""

    mode: str
    plan: dict[str, Any]
    injected: int = 0
    firings: list[dict[str, Any]] = field(default_factory=list)
    #: Terminal status -> count over the submitted specs.
    statuses: dict[str, int] = field(default_factory=dict)
    invariants: list[ChaosInvariant] = field(default_factory=list)
    baseline_cycles: dict[str, int] = field(default_factory=dict)
    observed_cycles: dict[str, int] = field(default_factory=dict)
    quarantined: int = 0
    cache_entries: int = 0
    #: Status -> count from the executing runner's manifest (the third
    #: leg of the determinism contract alongside firings and cache
    #: state: the same plan must reproduce these exactly).
    manifest_counts: dict[str, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(inv.ok for inv in self.invariants)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": CHAOS_SCHEMA,
            "mode": self.mode,
            "passed": self.passed,
            "plan": self.plan,
            "injected": self.injected,
            "firings": list(self.firings),
            "statuses": dict(sorted(self.statuses.items())),
            "invariants": [inv.to_dict() for inv in self.invariants],
            "baseline_cycles": dict(sorted(self.baseline_cycles.items())),
            "observed_cycles": dict(sorted(self.observed_cycles.items())),
            "quarantined": self.quarantined,
            "cache_entries": self.cache_entries,
            "manifest_counts": dict(sorted(self.manifest_counts.items())),
        }

    def summary(self) -> str:
        """Human-readable pass/fail block for the CLI."""
        lines = [f"chaos {self.mode}: "
                 f"{'PASS' if self.passed else 'FAIL'} — "
                 f"{self.injected} fault(s) injected, "
                 f"{sum(self.statuses.values())} spec(s), "
                 f"{self.quarantined} quarantined"]
        for status, count in sorted(self.statuses.items()):
            lines.append(f"  status {status:<17} {count}")
        for inv in self.invariants:
            mark = "ok  " if inv.ok else "FAIL"
            lines.append(f"  [{mark}] {inv.name}"
                         + (f": {inv.detail}" if inv.detail else ""))
        return "\n".join(lines)


def example_plan() -> FaultPlan:
    """The example plan (``examples/chaos_plan.json``).

    One bounded dose of every recovery path: corrupt and erroring cache
    reads, a failed cache write, a crashing job, dropped connections,
    slow-loris reads, and one forced batch timeout — vicious enough to
    exercise quarantine, backoff retry, and the breaker, gentle enough
    that every spec still lands (all invariants must hold).
    """
    return FaultPlan(description=(
        "Example chaos plan: bounded faults across every host layer."),
        rules=(
            FaultRule(site="cache.read", kind="io-error", max_fires=1),
            FaultRule(site="cache.read", kind="corrupt", max_fires=1),
            FaultRule(site="cache.write", kind="io-error", max_fires=1),
            FaultRule(site="executor.job", kind="crash", max_fires=1),
            FaultRule(site="serve.connection", kind="drop", max_fires=2),
            FaultRule(site="serve.read", kind="slow", latency=0.05,
                      max_fires=2),
            FaultRule(site="serve.batch_timeout", kind="force",
                      max_fires=1),
        ))


def default_specs(workloads: Sequence[str] = CHAOS_WORKLOADS,
                  threads: int = CHAOS_THREADS,
                  scale: float = CHAOS_SCALE) -> list[JobSpec]:
    """Small, fast specs for chaos runs (static policy, tiny scale); no
    workload is a :class:`FaultError`, as a run that judges nothing."""
    if not workloads:
        raise FaultError("a chaos run needs at least one workload")
    config = MachineConfig.asplos08_baseline()
    return [JobSpec(workload=WorkloadRef(name=name, scale=scale),
                    policy=PolicySpec.static(threads), config=config)
            for name in workloads]


def baseline_cycles(specs: Sequence[JobSpec]) -> dict[str, int]:
    """Fault-free cycle counts per content key, in a throwaway cache.

    Raises :class:`~repro.errors.FaultError` if the fault-free run
    itself fails — a chaos verdict would be meaningless without a
    trusted answer to compare against.
    """
    with tempfile.TemporaryDirectory(prefix="repro-chaos-base-") as tmp:
        try:
            results = JobRunner(cache=ResultCache(tmp)).run(specs)
        except JobError as exc:
            raise FaultError(f"fault-free baseline failed: {exc}") from exc
    return {spec.key(): result.cycles
            for spec, result in zip(specs, results)}


def _cycles_of(result: dict) -> int:
    """Cycle count of a serialized result, or -1 if unparseable."""
    try:
        return app_result_from_dict(result).cycles
    except Exception:
        return -1


def _judge(report: ChaosReport, injector: FaultInjector, unhandled: str,
           unaccounted: str, cache: ResultCache) -> None:
    """Record the firing log and the invariants every mode shares."""
    report.injected = injector.firing_count()
    report.firings = [f.to_dict() for f in injector.firings()]
    report.quarantined = cache.quarantined_count()
    report.cache_entries = len(cache)
    baseline = report.baseline_cycles
    # Every entry still served by the cache must match the baseline (a
    # miss is fine — corrupt entries must be *absent*)...
    corrupt = []
    for key, cycles in baseline.items():
        stored = cache.get_or_none(key)
        if stored is not None and _cycles_of(stored) != cycles:
            corrupt.append(f"{key[:12]} served {_cycles_of(stored)} "
                           f"!= baseline {cycles}")
    # ...and every served result must be bit-identical to it.
    wrong = [f"{key[:12]} observed {got} != baseline {baseline[key]}"
             for key, got in sorted(report.observed_cycles.items())
             if got != baseline.get(key)]
    report.invariants[:0] = [
        ChaosInvariant(INV_NO_UNHANDLED, ok=not unhandled, detail=unhandled),
        ChaosInvariant(INV_ACCOUNTED, ok=not unaccounted,
                       detail=unaccounted),
        ChaosInvariant(INV_NO_CORRUPT, ok=not corrupt,
                       detail="; ".join(corrupt) or
                       f"{report.cache_entries} entries clean, "
                       f"{report.quarantined} quarantined"),
        ChaosInvariant(INV_CYCLES, ok=not wrong,
                       detail="; ".join(wrong) or
                       f"{len(report.observed_cycles)} result(s) identical"),
    ]


#: One spec's outcome from a submit step: the key it was answered under
#: (None if it never was), its last status, and the cycles served.
Answer = tuple[str | None, str, int | None]


def run_chaos(plan: FaultPlan,
              submit: BatchSubmit | ServeSubmit) -> ChaosReport:
    """Arm ``plan``, push ``submit.specs`` through ``submit`` and judge
    what came back.  ``submit(cache_dir, report)`` yields one
    :data:`Answer` per spec and may record the manifest counts and
    invariants of its own on ``report``; anything it raises is an
    invariant violation, not a crash."""
    specs = submit.specs
    report = ChaosReport(mode=submit.mode, plan=plan.to_dict(),
                         baseline_cycles=baseline_cycles(specs))
    unhandled = ""
    answered: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as cache_dir:
        with injected(plan) as injector:
            try:
                for key, status, cycles in submit(cache_dir, report):
                    report.statuses[status] = report.statuses.get(status, 0) + 1
                    if key is not None:
                        answered.append(key)
                        if cycles is not None:
                            report.observed_cycles[key] = cycles
            except Exception as exc:
                unhandled = f"{type(exc).__name__}: {exc}"
        expected = sorted(spec.key() for spec in specs)
        _judge(report, injector, unhandled,
               "" if sorted(answered) == expected else
               f"submitted {len(expected)} spec(s), "
               f"answered {len(answered)}", ResultCache(cache_dir))
    if not report.passed:
        _log.warning("chaos run failed invariants",
                     extra={"mode": report.mode,
                            "violations": [inv.name
                                           for inv in report.invariants
                                           if not inv.ok]})
    return report


class BatchSubmit:
    """Resolve the specs as one batch of a real ``JobRunner``; a ``jobs``
    below one is a :class:`FaultError` before anything runs."""

    mode = "batch"

    def __init__(self, specs: Sequence[JobSpec], jobs: int = CHAOS_JOBS) -> None:
        if jobs < 1:
            raise FaultError(f"jobs must be >= 1, got {jobs}")
        self.specs = list(specs)
        self.jobs = jobs

    def __call__(self, cache_dir: str,
                 report: ChaosReport) -> Iterator[Answer]:
        runner = JobRunner(cache=ResultCache(cache_dir), jobs=self.jobs)
        try:
            resolutions = runner.resolve(self.specs)
        finally:
            report.manifest_counts = dict(runner.manifest.counts)
        for r in resolutions:
            yield (r.key, r.status,
                   None if r.result is None else _cycles_of(r.result))


class ServeSubmit:
    """POST each spec to ``/v1/run`` of a live server over real sockets
    until a 200, with up to ``attempts`` tries: dropped connections,
    sheds (429), timeouts (504) and failures (500) are retried — the
    client half of the recovery contract.  A spec that never lands
    counts against ``every-spec-accounted-once``, and ``/healthz`` must
    still answer afterwards (``server-stays-responsive``).

    ``attempts`` below one, or a spec whose machine the request schema
    cannot express, is a :class:`FaultError` before anything runs.
    """

    mode = "serve"

    def __init__(self, specs: Sequence[JobSpec],
                 attempts: int = SERVE_ATTEMPTS) -> None:
        from repro.serve.schema import request_body

        if attempts < 1:
            raise FaultError(f"attempts must be >= 1, got {attempts}")
        self.specs = list(specs)
        self.attempts = attempts
        try:  # a body the server would read as another machine
            self.bodies = [request_body(spec) for spec in self.specs]
        except ServeRequestError as exc:
            raise FaultError(
                "serve-mode chaos cannot express this machine config over "
                "the request schema; use the Table 1 baseline (optionally "
                f"with core/SMT/bandwidth overrides): {exc}") from exc

    def __call__(self, cache_dir: str,
                 report: ChaosReport) -> Iterator[Answer]:
        from repro.serve import ServeConfig, ServeClient, ServerThread

        # One worker and serial jobs keep firing order deterministic;
        # the tight breaker makes the trip → shed → probe → recover loop
        # actually exercisable by a handful of requests.
        thread = ServerThread(ServeConfig(
            port=0, workers=1, jobs=1, cache_dir=cache_dir,
            request_timeout=30.0, queue_depth=8,
            breaker_threshold=3, breaker_probe_after=2))
        responsive = False
        try:
            thread.start()
            for spec, body in zip(self.specs, self.bodies):
                yield self._post_until_served(thread.port, spec, body)
            with ServeClient(port=thread.port, timeout=10.0) as probe:
                responsive = probe.healthz().get("status") == "ok"
        finally:
            report.invariants.append(ChaosInvariant(
                INV_RESPONSIVE, ok=responsive,
                detail="" if responsive else "healthz did not answer ok"))
            thread.stop()
            if thread.server is not None:
                report.manifest_counts = dict(thread.server.manifest.counts)

    def _post_until_served(self, port: int, spec: JobSpec,
                           body: dict[str, Any]) -> Answer:
        from repro.serve import ServeClient

        status_seen = "unanswered"
        for _ in range(self.attempts):
            try:
                with ServeClient(port=port, timeout=30.0) as client:
                    status, payload = client.request("POST", "/v1/run", body)
            except ServeClientError:
                status_seen = "connection-error"  # dropped: retry fresh
                continue
            if status == 200:
                return (spec.key(), str(payload.get("status", "ok")),
                        int(payload.get("cycles", -1)))
            status_seen = f"http-{status}"
            time.sleep(0.02)  # brief pause before the retry
        return None, status_seen, None
