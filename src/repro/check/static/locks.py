"""Static lock pass: pairing/nesting faults and the lock-order graph.

Per-thread faults (double acquire, unlock of an unheld or mismatched
lock, locks still held at program end) come straight off the executor's
:class:`~repro.check.static.summary.LockFault` records.  The
cross-thread pass merges every thread's acquires-while-holding edges
into one graph and reports its cycles — the same potential-deadlock
criterion the dynamic :mod:`repro.check.lockorder` analysis applies,
through the same :func:`~repro.check.lockorder.lock_order_cycles`, but
over *all* paths the programs emit rather than the one interleaving a
run happened to take.
"""

from __future__ import annotations

from repro.check.findings import STATIC, Finding
from repro.check.lockorder import lock_order_cycles
from repro.check.static.summary import TeamSummary


def lock_fault_findings(team: TeamSummary) -> list[Finding]:
    """One finding per structural lock fault, across the team."""
    findings: list[Finding] = []
    for t in team.threads:
        for fault in t.lock_faults:
            if fault.kind == "static-held-at-exit":
                msg = (f"thread {fault.thread_id} of {team.kernel} ends "
                       f"with lock {fault.lock_id} still held "
                       f"(all held: {list(fault.held)})")
            elif fault.kind == "static-double-acquire":
                msg = (f"thread {fault.thread_id} of {team.kernel} acquires "
                       f"lock {fault.lock_id} at op {fault.index} while "
                       f"already holding it — self-deadlock under a "
                       f"non-reentrant lock manager")
            elif fault.kind == "static-unlock-mismatch":
                msg = (f"thread {fault.thread_id} of {team.kernel} releases "
                       f"lock {fault.lock_id} at op {fault.index} out of "
                       f"nesting order (held: {list(fault.held)})")
            else:  # static-unlock-of-unheld
                msg = (f"thread {fault.thread_id} of {team.kernel} releases "
                       f"lock {fault.lock_id} at op {fault.index} without "
                       f"holding it")
            findings.append(Finding(
                analysis=STATIC,
                kind=fault.kind,
                message=msg,
                details={"kernel": team.kernel,
                         "num_threads": team.num_threads,
                         **fault.to_dict()},
            ))
    return findings


def lock_order_findings(team: TeamSummary) -> list[Finding]:
    """Cycles in the merged acquires-while-holding graph."""
    #: (held, wanted) -> (thread, op ordinal) of the first witness.
    edges: dict[tuple[int, int], tuple[int, int]] = {}
    for t in team.threads:
        for edge, index in t.lock_order_edges.items():
            edges.setdefault(edge, (t.thread_id, index))

    findings: list[Finding] = []
    for component, cycle, cycle_edges in lock_order_cycles(edges):
        witnesses = [
            {"held": a, "wanted": b,
             "thread": edges[(a, b)][0], "op_index": edges[(a, b)][1]}
            for a, b in cycle_edges
        ]
        path = " -> ".join(str(lock) for lock in cycle)
        findings.append(Finding(
            analysis=STATIC,
            kind="static-lock-order-cycle",
            message=(f"{team.kernel} can deadlock: its programs acquire "
                     f"locks in a cycle {path} (proved from the op "
                     f"streams before any run)"),
            details={
                "kernel": team.kernel,
                "num_threads": team.num_threads,
                "locks": sorted(component),
                "cycle": cycle,
                "edges": witnesses,
            },
        ))
    return findings
