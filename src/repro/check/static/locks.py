"""Static lock pass: pairing faults, the lock-order graph and races.

Per-thread faults (double acquire, unlock of an unheld or mismatched
lock, locks still held at program end) come straight off the executor's
:class:`~repro.check.static.summary.LockFault` records.  The
cross-thread passes merge every thread's facts: the acquires-while-
holding edges into one graph, whose cycles
(:func:`~repro.check.lockorder.lock_order_cycles`) are potential
deadlocks over *all* paths the programs emit, not one interleaving; and
each thread's per-epoch store locksets, which Eraser's write-write rule
intersects across the team.
"""

from __future__ import annotations

from repro.check.findings import Finding
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


def lockset_findings(team: TeamSummary) -> list[Finding]:
    """Eraser's write-write rule (Savage et al., SOSP 1997), per barrier
    epoch: an address two or more threads store to between the same two
    barriers, with no lock common to all of those stores, is a race.

    Loads never report: workload generators touch line-aligned
    representative addresses, so a load and a store of one address by
    different threads models false sharing, not a race.  One finding
    per address, at the first epoch that races on it.
    """
    findings: list[Finding] = []
    reported: set[int] = set()
    epochs = sorted({e for t in team.threads for e in t.store_locksets})
    for epoch in epochs:
        # address -> (first writer, its locks); once a second thread
        # stores there, address -> every writer's locks.
        first: dict[int, tuple[int, frozenset[int]]] = {}
        shared: dict[int, dict[int, frozenset[int]]] = {}
        for t in team.threads:
            for addr, locks in t.store_locksets.get(epoch, {}).items():
                if addr not in first:
                    first[addr] = (t.thread_id, locks)
                    continue
                sharing = shared.get(addr)
                if sharing is None:
                    sharing = shared[addr] = dict([first[addr]])
                sharing[t.thread_id] = locks
        for addr, held in shared.items():
            if addr in reported or frozenset.intersection(*held.values()):
                continue
            reported.add(addr)
            writers = sorted(held)
            findings.append(Finding(
                kind="static-empty-lockset",
                message=(f"{team.kernel} races on address {addr:#x}: "
                         f"threads {writers} store to it in barrier epoch "
                         f"{epoch} with no lock common to every store"),
                details={"kernel": team.kernel,
                         "num_threads": team.num_threads,
                         "address": addr,
                         "address_hex": f"{addr:#x}",
                         "epoch": epoch,
                         "threads": writers,
                         "locksets": {str(tid): sorted(held[tid])
                                      for tid in writers}},
            ))
    return findings
