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
from typing import Any, Sequence

from repro.errors import FaultError, JobError, ServeClientError, ServeRequestError
from repro.faults.injector import FaultInjector, injected
from repro.faults.plan import FaultPlan, FaultRule
from repro.jobs import (
    JobRunner,
    JobSpec,
    PolicySpec,
    Resolution,
    ResultCache,
    WorkloadRef,
    app_result_from_dict,
)
from repro.obs import get_logger
from repro.sim.config import MachineConfig

#: Bump on any incompatible change to the report layout.
CHAOS_SCHEMA = "repro-chaos/1"

INV_NO_UNHANDLED = "no-unhandled-exceptions"
INV_ACCOUNTED = "every-spec-accounted-once"
INV_NO_CORRUPT = "cache-never-serves-corrupt"
INV_CYCLES = "sim-cycles-bit-identical"
INV_RESPONSIVE = "server-stays-responsive"

#: Default request-retry budget per spec in serve mode — generous on
#: purpose: retrying is the client's half of the recovery contract.
SERVE_ATTEMPTS = 25

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
    #: state: same plan + seed must reproduce these exactly).
    manifest_counts: dict[str, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(inv.ok for inv in self.invariants)

    def violations(self) -> list[ChaosInvariant]:
        return [inv for inv in self.invariants if not inv.ok]

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


def example_plan(seed: int = 1234) -> FaultPlan:
    """The seeded example plan (``examples/chaos_plan.json``).

    One bounded dose of every recovery path: corrupt and erroring cache
    reads, a failed cache write, a crashing job, dropped connections,
    slow-loris reads, and one forced batch timeout — vicious enough to
    exercise quarantine, backoff retry, and the breaker, gentle enough
    that every spec still lands (all invariants must hold).
    """
    return FaultPlan(seed=seed, description=(
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


def default_specs(workloads: Sequence[str] = ("PageMine", "ISort"),
                  threads: int = 2, scale: float = 0.05) -> list[JobSpec]:
    """Small, fast specs for chaos runs (static policy, tiny scale)."""
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


def _cycles_of(result: dict) -> int | None:
    """Cycle count of a serialized result, or ``None`` if unparseable."""
    try:
        return app_result_from_dict(result).cycles
    except Exception:
        return None


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
    report.invariants += [
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


def run_chaos_batch(plan: FaultPlan, specs: Sequence[JobSpec] | None = None,
                    jobs: int = 1,
                    cache_dir: str | None = None) -> ChaosReport:
    """Arm ``plan`` and push ``specs`` through a real ``JobRunner``."""
    specs = list(specs) if specs is not None else default_specs()
    report = ChaosReport(mode="batch", plan=plan.to_dict(),
                         baseline_cycles=baseline_cycles(specs))
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        cache = ResultCache(cache_dir or tmp)
        runner = JobRunner(cache=cache, jobs=jobs)
        unhandled = ""
        resolutions: list[Resolution] = []
        with injected(plan) as injector:
            try:
                resolutions = runner.resolve(specs)
            except Exception as exc:  # an invariant violation, not a crash
                unhandled = f"{type(exc).__name__}: {exc}"
        report.manifest_counts = dict(runner.manifest.counts)
        for resolution in resolutions:
            report.statuses[resolution.status] = \
                report.statuses.get(resolution.status, 0) + 1
            if resolution.result is not None:
                got = _cycles_of(resolution.result)
                report.observed_cycles[resolution.key] = \
                    -1 if got is None else got
        expected = sorted(spec.key() for spec in specs)
        answered = sorted(r.key for r in resolutions)
        _judge(report, injector, unhandled,
               "" if answered == expected else
               f"submitted {len(expected)} spec(s), "
               f"answered {len(answered)}", cache)
    return report


def _post_until_served(port: int, body: dict[str, Any],
                        attempts: int) -> tuple[str, int | None]:
    """POST ``/v1/run`` until a 200: ``(last status seen, cycles)``.

    Dropped connections, sheds (429), timeouts (504) and failures (500)
    are retried — the client half of the recovery contract; ``cycles``
    is ``None`` if the spec never landed within ``attempts``.
    """
    from repro.serve import ServeClient

    status_seen = "unanswered"
    for _ in range(max(1, attempts)):
        client = ServeClient(port=port, timeout=30.0)
        try:
            status, payload = client.request("POST", "/v1/run", body)
        except ServeClientError:
            status_seen = "connection-error"  # dropped/refused: retry fresh
            continue
        finally:
            client.close()
        if status == 200:
            return (str(payload.get("status", "ok")),
                    int(payload.get("cycles", -1)))
        status_seen = f"http-{status}"
        time.sleep(0.02)  # brief pause before the retry
    return status_seen, None


def run_chaos_serve(plan: FaultPlan, specs: Sequence[JobSpec] | None = None,
                    attempts: int = SERVE_ATTEMPTS,
                    cache_dir: str | None = None) -> ChaosReport:
    """Arm ``plan`` and drive a live server over real sockets.

    Each spec is POSTed to ``/v1/run`` with up to ``attempts`` tries
    (:func:`_post_until_served`).  A spec that never lands within its
    budget counts against ``every-spec-accounted-once``.
    """
    from repro.serve import ServeConfig, ServeClient, ServerThread
    from repro.serve.schema import request_body

    specs = list(specs) if specs is not None else default_specs()
    try:  # fail fast: a body the server would read as another machine
        bodies = [request_body(spec) for spec in specs]
    except ServeRequestError as exc:
        raise FaultError(
            "serve-mode chaos cannot express this machine config over "
            "the request schema; use the Table 1 baseline (optionally "
            f"with core/SMT/bandwidth overrides): {exc}") from exc
    report = ChaosReport(mode="serve", plan=plan.to_dict(),
                         baseline_cycles=baseline_cycles(specs))
    unhandled = ""
    responsive = False
    lost: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        cache_dir = cache_dir or tmp
        # One worker and serial jobs keep firing order deterministic;
        # the tight breaker makes the trip → shed → probe → recover loop
        # actually exercisable by a handful of requests.
        thread = ServerThread(ServeConfig(
            port=0, workers=1, jobs=1, cache_dir=cache_dir,
            request_timeout=30.0, queue_depth=8,
            breaker_threshold=3, breaker_probe_after=2))
        with injected(plan) as injector:
            try:
                thread.start()
                for spec, body in zip(specs, bodies):
                    status_seen, cycles = _post_until_served(
                        thread.port, body, attempts)
                    if cycles is None:
                        lost.append(spec.key()[:12])
                    else:
                        report.observed_cycles[spec.key()] = cycles
                    report.statuses[status_seen] = \
                        report.statuses.get(status_seen, 0) + 1
                probe = ServeClient(port=thread.port, timeout=10.0)
                try:
                    responsive = probe.healthz().get("status") == "ok"
                finally:
                    probe.close()
            except Exception as exc:
                unhandled = f"{type(exc).__name__}: {exc}"
            finally:
                try:
                    thread.stop()
                except Exception as exc:
                    unhandled = (unhandled
                                 or f"stop: {type(exc).__name__}: {exc}")
        if thread.server is not None:
            report.manifest_counts = dict(thread.server.manifest.counts)
        _judge(report, injector, unhandled,
               "" if not lost else
               f"{len(lost)} spec(s) never served: {', '.join(lost)}",
               ResultCache(cache_dir))
    report.invariants.append(ChaosInvariant(
        INV_RESPONSIVE, ok=responsive,
        detail="" if responsive else "healthz did not answer ok"))
    if not report.passed:
        _log.warning("chaos run failed invariants",
                     extra={"mode": report.mode,
                            "violations": [v.name
                                           for v in report.violations()]})
    return report
