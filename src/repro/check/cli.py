"""The ``repro check`` command: statically check a workload::

    python -m repro check PageMine               # check a workload
    python -m repro check synthetic-racy --json  # positive control, JSON out
    python -m repro check --all                  # check the roster

Abstract-executes the workload's thread programs at teams of 1, 4 and
16 threads, with no simulation of the checked workload itself, and
exits 0 when it is clean and 1 on races, lock-order cycles, barriers
that can never fill, or discipline violations.  Beside the findings it
reports each kernel's static SAT/BAT priors, and for a Table 2 workload
their agreement with the measured training estimates.

Registration does not import the analyzer: the handler imports it when
it drives it.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.report import format_findings
from repro.errors import WorkloadError
from repro.sim.config import MachineConfig
from repro.workloads import all_specs, get
from repro.workloads.synthetic import FIXTURES


def _cmd_check(args: argparse.Namespace) -> int:
    config = MachineConfig.baseline_with(args.cores, args.bandwidth, args.smt)
    if args.all:
        names = [s.name for s in all_specs()]
    elif args.workload is not None:
        names = [args.workload]
    else:
        print("error: give a workload name or --all", file=sys.stderr)
        return 2

    worst = 0
    payloads = []
    for name in names:
        payload, text, code = _check_one(name, args.scale, config)
        worst = max(worst, code)
        if args.json:
            payloads.append(payload)
        else:
            print(text)
    if args.json:
        out = payloads[0] if len(payloads) == 1 else payloads
        print(json.dumps(out, indent=2))
    return worst


def _check_one(name: str, scale: float,
               config: MachineConfig) -> tuple[dict, str, int]:
    """Check one workload; returns (json payload, text, exit code)."""
    from repro.check.static import analyze_workload

    report = analyze_workload(name=name, scale=scale, config=config)
    extras = _static_extras(name, report, scale, config)
    payload = {**report.to_dict(), **extras}
    text = format_findings(report) + _format_priors(report, extras)
    return payload, text, 0 if report.clean else 1


def _static_extras(name: str, static_report, scale: float,
                   config: MachineConfig) -> dict:
    """Measured training estimates + prior agreement (registry only).

    Fixtures are deliberately broken programs — running the real
    training loop on them could hang — so agreement is reported only
    for Table 2 registry workloads.
    """
    from repro.fdt.priors import estimates_view, measure_estimates

    try:
        spec = get(name)
    except WorkloadError:
        return {}
    measured: dict = {}
    agreement: dict = {}
    for kernel in spec.build(scale).kernels:
        prior = static_report.priors.get(kernel.name)
        if prior is None:
            continue
        est = measure_estimates(kernel, config)
        measured[kernel.name] = estimates_view(est)
        agreement[kernel.name] = prior.agreement(est).to_dict()
    return {"measured": measured, "agreement": agreement}


def _format_priors(static_report, extras: dict) -> str:
    """Render static priors (and agreement, when measured) as text."""
    lines = []
    agreement = extras.get("agreement", {})
    for kname, priors in sorted(static_report.priors.items()):
        prior = priors.estimates
        line = (f"static prior {kname}: cs_fraction={prior.cs_fraction:.2%} "
                f"bu1={prior.bu1:.2%} p_cs={prior.p_cs} p_bw={prior.p_bw} "
                f"p_fdt={prior.p_fdt}")
        agree = agreement.get(kname)
        if agree:
            verdict = ("within" if agree["within_tolerance"]
                       else "OUTSIDE")
            line += (f" | measured cs_fraction="
                     f"{agree['measured_cs_fraction']:.2%} "
                     f"p_fdt={agree['measured_p_fdt']} "
                     f"({verdict} tolerance)")
        lines.append(line)
    return ("\n" + "\n".join(lines)) if lines else ""


def register(sub: argparse._SubParsersAction,
             parents: argparse.Namespace) -> None:
    """Mount ``repro check`` (the contract is in :mod:`repro.cli`)."""
    p_check = sub.add_parser(
        "check", parents=[parents.machine, parents.logging],
        help="statically check a workload (races, lock order, barriers, "
             "discipline) and report its SAT/BAT priors")
    p_check.add_argument("workload", nargs="?", default=None,
                         help="Table 2 workload name, or a fixture "
                              f"({', '.join(sorted(FIXTURES))})")
    p_check.add_argument("--all", action="store_true",
                         help="check every Table 2 workload")
    p_check.add_argument("--json", action="store_true",
                         help="print the machine-readable findings report")
    p_check.set_defaults(func=_cmd_check)
