"""The ``repro check`` command: thread-sanitize a workload::

    python -m repro check PageMine               # thread-sanitize a workload
    python -m repro check synthetic-racy --json  # positive control, JSON out
    python -m repro check EP --static            # + static proofs and priors
    python -m repro check --all --static-only    # static-verify the roster

Exits 0 when the workload is clean and 1 when the sanitizer found races,
lock-order cycles, or discipline violations; ``--static`` adds the
ahead-of-run analyzer (lock/barrier proofs + static FDT priors) and
``--static-only`` skips the simulated run entirely.

Registration imports neither the sanitizer nor the analyzer: the
handler imports them when it drives them.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.report import format_findings
from repro.check.config import DEFAULT_THREADS
from repro.errors import WorkloadError
from repro.sim.config import MachineConfig
from repro.workloads import all_specs, get
from repro.workloads.synthetic import FIXTURES


def _cmd_check(args: argparse.Namespace) -> int:
    if args.static_only:
        args.static = True
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
        payload, text, code = _check_one(name, args)
        worst = max(worst, code)
        if args.json:
            payloads.append(payload)
        else:
            print(text)
    if args.json:
        out = payloads[0] if len(payloads) == 1 else payloads
        print(json.dumps(out, indent=2))
    return worst


def _check_one(args_name: str,
               args: argparse.Namespace) -> tuple[dict, str, int]:
    """Check one workload; returns (json payload, text, exit code)."""
    from repro.check.runner import check_workload
    from repro.check.static import analyze_workload

    config = MachineConfig.baseline_with(args.cores, args.bandwidth, args.smt)
    static_report = None
    extras: dict = {}
    if args.static:
        static_report = analyze_workload(name=args_name, scale=args.scale,
                                         config=config)
        extras = _static_extras(args_name, static_report, args.scale, config)

    if args.static_only:
        payload = {**static_report.to_dict(), **extras}
        text = format_findings(static_report.as_check_report())
        text = text.replace("repro check:", "repro check --static-only:", 1)
        text += _format_priors(static_report, extras)
        return payload, text, 0 if static_report.clean else 1

    report = check_workload(args_name, scale=args.scale, config=config,
                            threads=args.threads)
    payload = report.to_dict()
    text = format_findings(report)
    code = 0 if report.clean else 1
    if static_report is not None:
        payload["static"] = static_report.to_dict()
        payload.update(extras)
        if not static_report.clean:
            code = max(code, 1)
            static_text = format_findings(static_report.as_check_report())
            text += "\nstatic analysis:\n" + static_text
        else:
            text += "\nstatic analysis: OK - no findings"
        text += _format_priors(static_report, extras)
    return payload, text, code


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
        help="thread-sanitize a workload (races, lock order, discipline), "
             "optionally with ahead-of-run static analysis")
    p_check.add_argument("workload", nargs="?", default=None,
                         help="Table 2 workload name, or a fixture "
                              f"({', '.join(sorted(FIXTURES))})")
    p_check.add_argument("--all", action="store_true",
                         help="check every Table 2 workload")
    p_check.add_argument("--threads", type=int, default=DEFAULT_THREADS,
                         help="static team size for the checked run "
                              "(default %(default)s; clamped to >= 2)")
    p_check.add_argument("--static", action="store_true",
                         help="also run the ahead-of-run static analyzer "
                              "(lock-order proofs, barrier proofs, "
                              "SAT/BAT priors vs measured training)")
    p_check.add_argument("--static-only", action="store_true",
                         help="run only the static analyzer — no "
                              "simulation of the checked workload itself "
                              "(training still runs to report prior "
                              "agreement for Table 2 workloads)")
    p_check.add_argument("--json", action="store_true",
                         help="print the machine-readable findings report")
    p_check.set_defaults(func=_cmd_check)
