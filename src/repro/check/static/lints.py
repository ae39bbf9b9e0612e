"""Static structural lints: legal-but-suspect op-stream shapes.

Nothing here predicts a hang or a race; each lint flags a pattern that
is almost always a workload-authoring bug on this simulator:

* ``static-counter-in-cs`` — a ReadCounter inside a critical section:
  training instrumentation must bracket critical sections from the
  *outside* (Section 4.2.1); reading the cycle counter while holding
  the lock folds the measurement overhead into T_CS itself;
* ``static-empty-critical-section`` — a lock/unlock pair with nothing
  between them: pure serialization, zero protected work;
* ``static-degenerate-compute`` — Compute(0) ops: no-ops that still
  cost generator machinery; usually a mis-scaled workload constant.
"""

from __future__ import annotations

from repro.check.findings import STATIC, Finding
from repro.check.static.summary import TeamSummary


def lint_findings(team: TeamSummary) -> list[Finding]:
    """All structural lints over one team summary."""
    findings: list[Finding] = []

    for t in team.threads:
        for site in t.counter_in_cs:
            findings.append(Finding(
                analysis=STATIC,
                kind="static-counter-in-cs",
                message=(f"thread {site.thread_id} of {team.kernel} reads "
                         f"counter '{site.counter}' at op {site.index} "
                         f"inside a critical section (holding "
                         f"{list(site.held)}) — instrumentation must "
                         f"bracket critical sections from outside"),
                details={"kernel": team.kernel,
                         "num_threads": team.num_threads,
                         "thread": site.thread_id,
                         "counter": site.counter,
                         "index": site.index,
                         "held": list(site.held)},
            ))

    empty_by_lock: dict[int, int] = {}
    for t in team.threads:
        for region in t.lock_regions:
            if region.closed and region.empty:
                empty_by_lock[region.lock_id] = (
                    empty_by_lock.get(region.lock_id, 0) + 1)
    for lock, count in sorted(empty_by_lock.items()):
        findings.append(Finding(
            analysis=STATIC,
            kind="static-empty-critical-section",
            message=(f"{team.kernel} takes lock {lock} around no work at "
                     f"all ({count} empty lock/unlock region(s)) — pure "
                     f"serialization"),
            details={"kernel": team.kernel,
                     "num_threads": team.num_threads,
                     "lock": lock, "regions": count},
        ))

    zero_computes = sum(t.zero_computes for t in team.threads)
    if zero_computes:
        findings.append(Finding(
            analysis=STATIC,
            kind="static-degenerate-compute",
            message=(f"{team.kernel} emits {zero_computes} Compute(0) "
                     f"op(s) — no-ops that suggest a mis-scaled workload "
                     f"constant"),
            details={"kernel": team.kernel,
                     "num_threads": team.num_threads,
                     "count": zero_computes},
        ))

    return findings
