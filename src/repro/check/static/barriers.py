"""Static barrier pass: prove the team cannot hang on a barrier.

A barrier completes only when *every* thread of the team arrives, so
two stream properties are each a guaranteed hang, provable from the op
summaries alone:

* **count mismatch** — threads emit different numbers of BarrierWait
  ops: once the short threads exit, the long ones wait forever;
* **sequence divergence** — equal counts but different barrier-id
  sequences: with the arrival counts matched up position by position,
  some position has two threads parked on *different* barriers, neither
  of which can ever fill.

Truncated threads (op budget hit) are excluded — their tails are
unknown, so neither property can be proved for them.
"""

from __future__ import annotations

from repro.check.findings import Finding
from repro.check.static.summary import TeamSummary


def barrier_findings(team: TeamSummary) -> list[Finding]:
    """Barrier-consistency findings for one team summary."""
    threads = [t for t in team.threads if not t.truncated]
    if len(threads) < 2:
        return []

    counts = {t.thread_id: t.barrier_waits for t in threads}
    if len(set(counts.values())) > 1:
        by_count: dict[int, list[int]] = {}
        for tid, n in counts.items():
            by_count.setdefault(n, []).append(tid)
        detail = ", ".join(
            f"{n} arrivals from threads {tids}"
            for n, tids in sorted(by_count.items()))
        return [Finding(
            kind="static-barrier-count-mismatch",
            message=(f"{team.kernel} with {team.num_threads} threads will "
                     f"hang: threads arrive at barriers a different number "
                     f"of times ({detail})"),
            details={"kernel": team.kernel,
                     "num_threads": team.num_threads,
                     "arrivals": {str(t): n for t, n in sorted(counts.items())}},
        )]

    # Counts match; every position of the arrival sequences must agree.
    reference = threads[0]
    for t in threads[1:]:
        for pos, (a, b) in enumerate(zip(reference.barrier_sequence,
                                         t.barrier_sequence)):
            if a != b:
                return [Finding(
                    kind="static-barrier-sequence-divergence",
                    message=(f"{team.kernel} with {team.num_threads} threads "
                             f"will hang: at arrival {pos} thread "
                             f"{reference.thread_id} waits on barrier {a} "
                             f"while thread {t.thread_id} waits on "
                             f"barrier {b}"),
                    details={"kernel": team.kernel,
                             "num_threads": team.num_threads,
                             "position": pos,
                             "threads": [reference.thread_id, t.thread_id],
                             "barriers": [a, b]},
                )]
    return []
