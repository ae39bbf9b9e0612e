"""The ``repro chaos`` command: run a fault-injection plan against a
``JobRunner`` batch, a live server, or both, and judge the recovery
invariants (exit 0 when every invariant holds, 1 otherwise).

Registration imports only :mod:`repro.faults.config`; the handler
imports the harness it drives.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.faults.config import (
    CHAOS_JOBS,
    CHAOS_SCALE,
    CHAOS_THREADS,
    CHAOS_WORKLOADS,
    SERVE_ATTEMPTS,
)


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.analysis.report import ascii_table
    from repro.faults.chaos import (
        CHAOS_SCHEMA,
        BatchSubmit,
        ServeSubmit,
        default_specs,
        example_plan,
        run_chaos,
    )
    from repro.faults.plan import FaultPlan
    from repro.faults.sites import sites_table

    if args.list_sites:
        print(ascii_table(("site", "layer", "kinds", "description"),
                          sites_table()))
        return 0
    plan = (FaultPlan.load(args.plan) if args.plan else example_plan())
    if args.seed is not None:
        plan = plan.with_seed(args.seed)
    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    specs = default_specs(workloads=workloads, threads=args.threads,
                          scale=args.scale)
    # Both submit steps check their arguments before either one runs.
    submits: list[BatchSubmit | ServeSubmit] = []
    if args.mode in ("batch", "both"):
        submits.append(BatchSubmit(specs, jobs=args.jobs))
    if args.mode in ("serve", "both"):
        submits.append(ServeSubmit(specs, attempts=args.attempts))
    reports = [run_chaos(plan, submit) for submit in submits]
    passed = all(r.passed for r in reports)
    payload = {"schema": CHAOS_SCHEMA, "passed": passed,
               "reports": [r.to_dict() for r in reports]}
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"chaos report written to {args.report}", file=sys.stderr)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for report in reports:
            print(report.summary())
    return 0 if passed else 1


def register(sub: argparse._SubParsersAction,
             parents: argparse.Namespace) -> None:
    """Mount ``repro chaos`` (the contract is in :mod:`repro.cli`)."""
    p_chaos = sub.add_parser(
        "chaos", parents=[parents.logging],
        help="run a fault-injection plan and judge recovery invariants")
    p_chaos.add_argument("--plan", default=None, metavar="FILE",
                         help="fault plan JSON (default: the built-in "
                              "example plan)")
    p_chaos.add_argument("--mode", choices=("batch", "serve", "both"),
                         default="both",
                         help="drive a JobRunner batch, a live server, "
                              "or both (default: both)")
    p_chaos.add_argument("--workloads",
                         default=",".join(CHAOS_WORKLOADS),
                         help="comma-separated Table 2 workload names")
    p_chaos.add_argument("--threads", type=int,
                         default=CHAOS_THREADS,
                         help="static thread count per chaos spec")
    p_chaos.add_argument("--scale", type=float,
                         default=CHAOS_SCALE,
                         help="input-set scale of the chaos specs")
    p_chaos.add_argument("--seed", type=int, default=None,
                         help="override the plan's seed")
    p_chaos.add_argument("--jobs", type=int, default=CHAOS_JOBS,
                         help="worker processes for the batch run")
    p_chaos.add_argument("--attempts", type=int,
                         default=SERVE_ATTEMPTS,
                         help="per-spec request retries in serve mode")
    p_chaos.add_argument("--json", action="store_true",
                         help="print the machine-readable report")
    p_chaos.add_argument("--report", default=None, metavar="FILE",
                         help="also write the full JSON report here")
    p_chaos.add_argument("--list-sites", action="store_true",
                         help="print the registered fault sites and exit")
    p_chaos.set_defaults(func=_cmd_chaos)
