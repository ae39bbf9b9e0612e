"""The ``repro trace`` command: run one workload with the tracer
attached and export its Perfetto / CSV / decision-log artifacts::

    python -m repro trace PageMine --out tr/     # record + export a trace

Registration imports only the policy names and the default sample
interval; the handler imports the recorder it drives.
"""

from __future__ import annotations

import argparse
import json

from repro.fdt.policies import POLICIES
from repro.trace import SAMPLE_INTERVAL


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.jobs import PolicySpec
    from repro.sim.config import MachineConfig
    from repro.trace import run_traced, text_summary, write_artifacts
    from repro.workloads import get

    config = MachineConfig.baseline_with(args.cores, args.bandwidth, args.smt)
    spec = get(args.workload)
    policy = PolicySpec(args.policy, args.threads).build()
    traced = run_traced(spec.build(args.scale), policy, config,
                        sample_interval=args.sample_interval)
    paths = write_artifacts(traced.trace, args.out)
    if args.json:
        t = traced.trace
        print(json.dumps({
            "workload": spec.name,
            "policy": traced.result.policy_name,
            "cycles": traced.result.cycles,
            "power": traced.result.power,
            "spans": len(t.spans),
            "samples": len(t.samples),
            "marks": len(t.marks),
            "decisions": len(t.decisions),
            "dropped_spans": t.dropped_spans,
            "dropped_samples": t.dropped_samples,
            "artifacts": {name: str(path) for name, path in paths.items()},
        }, indent=2))
        return 0
    print(f"{spec.name} under {traced.result.policy_name}: "
          f"{traced.result.cycles:,} cycles")
    print(text_summary(traced.trace))
    print(f"artifacts written to {args.out}:")
    for name, path in sorted(paths.items()):
        print(f"  {name}: {path}")
    return 0


def register(sub: argparse._SubParsersAction,
             parents: argparse.Namespace) -> None:
    """Mount ``repro trace`` (the contract is in :mod:`repro.cli`)."""
    p_trace = sub.add_parser(
        "trace", parents=[parents.machine, parents.logging],
        help="run one workload with the tracer attached and export "
             "Perfetto/CSV/decision-log artifacts")
    p_trace.add_argument("workload", help="Table 2 workload name")
    p_trace.add_argument("--policy", choices=tuple(POLICIES),
                         default="fdt")
    p_trace.add_argument("--threads", type=int, default=None,
                         help="thread count for --policy static")
    p_trace.add_argument("--sample-interval", type=int, metavar="CYCLES",
                         default=SAMPLE_INTERVAL,
                         help="counter-sample spacing (default %(default)s)")
    p_trace.add_argument("--out", default="trace-out", metavar="DIR",
                         help="artifact directory (default: trace-out)")
    p_trace.add_argument("--json", action="store_true",
                         help="print the machine-readable trace summary")
    p_trace.set_defaults(func=_cmd_trace)
