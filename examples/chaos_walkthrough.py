"""Walkthrough: deterministic fault injection with ``repro.faults``.

Loads the example fault plan (``examples/chaos_plan.json``), arms it
against a real :class:`~repro.jobs.JobRunner` batch, and shows what the
hardened host layers did about every injected fault: backoff retries
for crashed jobs, quarantine for corrupt cache entries, tolerated cache
write errors — all while the simulated cycle counts stay bit-identical
to a fault-free run.

Run with::

    PYTHONPATH=src python examples/chaos_walkthrough.py

The same plan drives ``repro chaos`` (add ``--mode serve`` to aim it at
a live server over real sockets):

    python -m repro chaos --plan examples/chaos_plan.json
"""

from __future__ import annotations

from pathlib import Path

from repro.faults import FaultPlan
from repro.faults.chaos import BatchSubmit, default_specs, run_chaos

PLAN_PATH = Path(__file__).parent / "chaos_plan.json"


def main() -> None:
    plan = FaultPlan.load(PLAN_PATH)
    print(f"loaded plan: {plan.description}")
    print(f"  seed={plan.seed}, {len(plan.rules)} rule(s), "
          f"sites: {', '.join(sorted({r.site for r in plan.rules}))}")

    specs = default_specs(workloads=("PageMine",), threads=2, scale=0.05)
    report = run_chaos(plan, BatchSubmit(specs))

    print()
    print(report.summary())
    print()
    print("injected firings, in order:")
    for firing in report.firings:
        print(f"  #{firing['occurrence']:>2} {firing['site']:<18} "
              f"{firing['kind']:<10} rule {firing['rule']}")
    if not report.firings:
        print("  (none — the plan's batch sites never matched)")

    # The same plan with the same seed always fires the same faults:
    again = run_chaos(plan, BatchSubmit(specs))
    identical = again.firings == report.firings
    print()
    print(f"re-run with the same seed fires identically: {identical}")
    assert identical, "chaos runs must be deterministic"
    assert report.passed and again.passed, "invariants must hold"


if __name__ == "__main__":
    main()
