"""The static analyzer: abstract-execute an application, run the passes.

:func:`analyze_application` abstract-executes every kernel of an
application at each requested team size (plus a team of one for the
priors), runs the pass pipeline over each team summary, deduplicates
findings across team sizes, and returns a :class:`StaticReport`.
:func:`analyze_workload` resolves names as ``repro check`` does
(:func:`repro.check.runner.resolve`), building a *fresh* application
per team size so stateful kernels cannot leak facts between analyses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.check.findings import CheckReport, Finding, FindingLog
from repro.check.runner import resolve
from repro.check.static.barriers import barrier_findings
from repro.check.static.executor import AbstractExecutor
from repro.check.static.lints import lint_findings
from repro.check.static.locks import lock_fault_findings, lock_order_findings
from repro.check.static.profile import profile_team, team_priors
from repro.check.static.summary import TeamSummary
from repro.errors import WorkloadError
from repro.fdt.priors import StaticPriors
from repro.fdt.runner import Application
from repro.sim.config import MachineConfig

#: Default team sizes to analyze.  One team of one (the priors' view),
#: one small team, one team wide enough to shift barrier/chunk shapes.
DEFAULT_THREAD_COUNTS = (1, 4, 16)


@dataclass(frozen=True, slots=True)
class StaticReport:
    """Everything one static analysis produced."""

    workload: str
    thread_counts: tuple[int, ...]
    findings: tuple[Finding, ...]
    #: Kernel name -> SAT/BAT priors from the team-of-one summary.
    priors: dict[str, StaticPriors] = field(default_factory=dict)
    #: JSON-ready per-kernel, per-team-size profiles.
    profiles: tuple[dict[str, Any], ...] = ()
    #: Some thread hit the op budget; findings are sound but incomplete.
    truncated: bool = False
    #: Findings dropped at the ``MAX_FINDINGS`` cap.
    dropped: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts(self) -> dict[str, int]:
        """Finding count per kind."""
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.kind] = out.get(f.kind, 0) + 1
        return out

    def as_check_report(self) -> CheckReport:
        """Bridge to the dynamic report type, for the shared formatter."""
        return CheckReport(
            workload=self.workload,
            threads=max(self.thread_counts),
            findings=self.findings,
            aborted=None,
            cycles=0,
            dropped=self.dropped,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "thread_counts": list(self.thread_counts),
            "clean": self.clean,
            "truncated": self.truncated,
            "dropped": self.dropped,
            "counts": self.counts(),
            "findings": [f.to_dict() for f in self.findings],
            "priors": {k: p.to_dict() for k, p in sorted(self.priors.items())},
            "profiles": list(self.profiles),
        }


def analyze_application(
        build: Callable[[], Application],
        thread_counts: tuple[int, ...] = DEFAULT_THREAD_COUNTS,
        config: MachineConfig | None = None) -> StaticReport:
    """Statically analyze an application at each requested team size.

    Args:
        build: a zero-argument builder of the application: a fresh
            application is built per team size, so no analysis can
            observe another's side effects (kernels carry state).
        thread_counts: team sizes to analyze.  A team of one is always
            added (the priors derive from it).
        config: machine whose cost parameters drive the abstract model
            (Table 1 baseline if None).
    """
    if not thread_counts:
        raise WorkloadError("static analysis needs at least one team size")
    if any(n < 1 for n in thread_counts):
        raise WorkloadError("team sizes must be >= 1")
    cfg = config or MachineConfig.asplos08_baseline()

    sizes = tuple(sorted(set(thread_counts) | {1}))
    name = ""
    log = FindingLog()
    seen: set[tuple[str, str]] = set()
    priors: dict[str, StaticPriors] = {}
    profiles: list[dict[str, Any]] = []
    truncated = False

    executor = AbstractExecutor(cfg)
    for num_threads in sizes:
        app = build()
        name = app.name
        for kernel in app.kernels:
            factories = kernel.factories(
                range(kernel.total_iterations), num_threads)
            team = executor.run_team(kernel.name, factories, num_threads)
            truncated = truncated or team.truncated

            if num_threads == 1:
                priors[kernel.name] = team_priors(
                    team, kernel.total_iterations, cfg)
            profiles.append(profile_team(team, cfg))

            for f in _team_findings(team):
                key = (f.kind, _identity(f))
                if key not in seen:
                    seen.add(key)
                    log.add(f)

    return StaticReport(
        workload=name,
        thread_counts=tuple(sorted(set(thread_counts))),
        findings=tuple(log.findings),
        priors=priors,
        profiles=tuple(profiles),
        truncated=truncated,
        dropped=log.dropped,
    )


def analyze_workload(
        name: str, scale: float = 0.5,
        thread_counts: tuple[int, ...] = DEFAULT_THREAD_COUNTS,
        config: MachineConfig | None = None) -> StaticReport:
    """Statically analyze a workload by name — the names ``repro check``
    takes (:func:`repro.check.runner.resolve`).

    Raises:
        WorkloadError: unknown name.
    """
    build = resolve(name)
    return analyze_application(lambda: build(scale),
                               thread_counts=thread_counts, config=config)


def _team_findings(team: TeamSummary) -> list[Finding]:
    """Every pass over one team summary, in report order."""
    return [*lock_fault_findings(team), *lock_order_findings(team),
            *barrier_findings(team), *lint_findings(team)]


def _identity(f: Finding) -> str:
    """Dedup key: the details minus the team size they were seen at.

    The same structural defect usually reproduces at every analyzed
    team size with identical details except ``num_threads`` (and, for
    barrier findings, the per-team arrival bookkeeping); collapsing on
    the remainder keeps one witness per defect.
    """
    skip = {"num_threads", "arrivals", "threads", "position"}
    pruned = {k: v for k, v in f.details.items() if k not in skip}
    return json.dumps(pruned, sort_keys=True, default=str)
