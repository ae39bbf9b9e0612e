"""Command-line interface: run workloads, sweeps, and paper figures.

Usage (after ``pip install -e .``)::

    python -m repro list                         # Table 2 roster
    python -m repro run PageMine --policy fdt    # one application run
    python -m repro run ED --policy static --threads 8 --json
    python -m repro sweep PageMine --threads 1,2,4,8,16,32
    python -m repro sweep ED --jobs 8            # points on a process pool
    python -m repro figure fig2                  # regenerate a figure
    python -m repro figure fig8 --jobs 8 --manifest fig8.json
    python -m repro batch EP PageMine --threads 1,2,4 --policies static,fdt
    python -m repro machine                      # Table 1 dump
    python -m repro check PageMine               # thread-sanitize a workload
    python -m repro check synthetic-racy --json  # positive control, JSON out
    python -m repro check EP --static            # + static proofs and priors
    python -m repro check --all --static-only    # static-verify the roster
    python -m repro trace PageMine --out tr/     # record + export a trace
    python -m repro run EP --trace tr/           # same, via the run command
    python -m repro serve --port 8080            # HTTP experiment server
    python -m repro loadgen PageMine --rps 50    # open-loop load + report

Every command accepts ``--scale`` (input-set scaling) and the machine
knobs ``--cores`` and ``--bandwidth``.  ``check`` exits 0 when the
workload is clean and 1 when the sanitizer found races, lock-order
cycles, or discipline violations; ``--static`` adds the ahead-of-run
analyzer (lock/barrier proofs + static FDT priors) and ``--static-only``
skips the simulated run entirely.

``sweep``, ``figure``, and ``batch`` submit their simulations through
the :mod:`repro.jobs` subsystem: ``--jobs N`` fans independent runs out
over N worker processes, results are served from the content-addressed
cache under ``~/.cache/repro`` (``--cache-dir`` overrides, ``--no-cache``
disables), and ``--manifest FILE`` records every job's key, status, and
wall time.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.analysis.oracle import oracle_choice
from repro.analysis.report import ascii_table
from repro.analysis.sweep import sweep_threads
from repro.errors import ReproError, WorkloadError
from repro.experiments import FIGURES
from repro.fdt.policies import POLICIES
from repro.fdt.runner import run_application
from repro.jobs import (
    JobRunner,
    JobSpec,
    PolicySpec,
    ResultCache,
    WorkloadRef,
    app_result_to_dict,
    raise_unserved,
)
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.workloads import all_specs, get


def _machine_config(args: argparse.Namespace) -> MachineConfig:
    return MachineConfig.baseline_with(args.cores, args.bandwidth,
                                       getattr(args, "smt", None))


def _parse_thread_list(text: str) -> tuple[int, ...]:
    # "".split(",") yields [''], so emptiness must be checked on the
    # stripped parts, not on the tuple of parsed ints.
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise ReproError("thread list is empty")
    try:
        return tuple(int(part) for part in parts)
    except ValueError:
        raise ReproError(f"bad thread list {text!r}; expected e.g. 1,2,4,8")


def _warn_counts_over_cores(counts: Sequence[int],
                            config: MachineConfig) -> None:
    """Flag requested thread counts the sweep will silently skip."""
    skipped = sorted({t for t in counts if t > config.num_cores})
    if skipped:
        listed = ",".join(map(str, skipped))
        print(f"warning: skipping thread counts above the "
              f"{config.num_cores}-core machine: {listed}", file=sys.stderr)


def _make_runner(args: argparse.Namespace) -> JobRunner:
    """Build the job runner the jobs-aware commands share."""
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return JobRunner(cache=cache, jobs=args.jobs, timeout=args.timeout,
                     trace_dir=getattr(args, "trace_dir", None),
                     preflight=getattr(args, "preflight", False))


def _finish_jobs(args: argparse.Namespace, runner: JobRunner,
                 quiet: bool = False) -> None:
    """Write the manifest if requested; summarize to stderr."""
    if args.manifest:
        runner.manifest.write(args.manifest)
    if not quiet:
        print(f"jobs: {runner.manifest.summary()}", file=sys.stderr)


def _cmd_list(args: argparse.Namespace) -> int:
    rows = [(s.name, s.category.value, s.description, s.repro_input)
            for s in all_specs()]
    print(ascii_table(("workload", "class", "description", "input"), rows))
    return 0


def _cmd_machine(args: argparse.Namespace) -> int:
    from repro.experiments.figures import table1_text
    print(FIGURES["table1"].title)
    print(table1_text(_machine_config(args)))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.trace import TraceRecorder, write_artifacts

    config = _machine_config(args)
    spec = get(args.workload)
    recorder = TraceRecorder() if args.trace is not None else None
    machine = Machine(config, observers=[recorder] if recorder else ())
    policy = PolicySpec(args.policy, args.threads).build()
    result = run_application(spec.build(args.scale), policy,
                             machine=machine)
    trace_paths = write_artifacts(recorder.data, args.trace) if recorder else None
    if args.json:
        r = result.result
        payload = app_result_to_dict(result)
        payload.update(
            cycles=result.cycles,
            power=result.power,
            bus_utilization=r.bus_utilization,
            spin_core_cycles=r.spin_core_cycles,
            ipc=r.ipc,
            energy=r.energy,
        )
        if trace_paths is not None:
            payload["trace"] = {name: str(path)
                                for name, path in trace_paths.items()}
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{spec.name} under {result.policy_name} "
          f"on {config.num_cores} cores:")
    for info in result.kernel_infos:
        line = (f"  {info.kernel_name}: {info.threads} threads, "
                f"{info.total_cycles:,} cycles")
        if info.estimates is not None:
            est = info.estimates
            line += (f"  [trained {info.trained_iterations} iters: "
                     f"CS {est.cs_fraction:.1%}, BU_1 {est.bu1:.1%}, "
                     f"P_CS {est.p_cs}, P_BW {est.p_bw}]")
        print(line)
    print(f"total: {result.cycles:,} cycles, power {result.power:.2f} "
          f"active cores")
    if args.report is not None:
        from pathlib import Path

        from repro.analysis import machine_report_json
        Path(args.report).write_text(machine_report_json(machine))
        print(f"machine report written to {args.report}")
    if trace_paths is not None:
        print(f"trace artifacts written to {args.trace}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _machine_config(args)
    spec = get(args.workload)
    counts = _parse_thread_list(args.threads)
    _warn_counts_over_cores(counts, config)
    runner = _make_runner(args)
    sweep = sweep_threads(WorkloadRef(name=spec.name, scale=args.scale),
                          counts, config, runner=runner)
    oracle = oracle_choice(sweep)
    if args.json:
        payload = {
            "workload": spec.name,
            "scale": args.scale,
            "points": [{"threads": p.threads, "cycles": p.cycles,
                        "power": p.power,
                        "bus_utilization": p.bus_utilization,
                        "spin_core_cycles": p.spin_core_cycles,
                        "ipc": p.ipc,
                        "energy": p.energy}
                       for p in sweep.points],
            "best_threads": sweep.best_threads,
            "oracle_threads": oracle.threads,
        }
        print(json.dumps(payload, indent=2))
    else:
        base = sweep.points[0].cycles
        rows = [(p.threads, p.cycles, f"{p.cycles / base:.3f}",
                 f"{p.power:.1f}", f"{p.bus_utilization:.1%}")
                for p in sweep.points]
        print(ascii_table(
            ("threads", "cycles", "norm time", "power", "bus util"), rows))
        print(f"\nbest: {sweep.best_threads} threads; "
              f"oracle (fewest within 1%): {oracle.threads} threads")
    _finish_jobs(args, runner)
    return 0


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
    from repro.analysis.report import format_findings
    from repro.check.runner import check_workload

    config = _machine_config(args)
    static_report = None
    extras: dict = {}
    if args.static:
        from repro.check.static import analyze_workload
        static_report = analyze_workload(name=args_name, scale=args.scale,
                                         config=config)
        extras = _static_extras(args_name, static_report, args.scale, config)

    if args.static_only:
        assert static_report is not None
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
    from repro.fdt.priors import measure_estimates

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
        measured[kernel.name] = {
            "t_cs": est.t_cs, "t_nocs": est.t_nocs, "bu1": est.bu1,
            "cs_fraction": est.cs_fraction,
            "p_cs": est.p_cs, "p_bw": est.p_bw, "p_fdt": est.p_fdt,
        }
        agreement[kernel.name] = prior.agreement(est).to_dict()
    return {"measured": measured, "agreement": agreement}


def _format_priors(static_report, extras: dict) -> str:
    """Render static priors (and agreement, when measured) as text."""
    lines = []
    agreement = extras.get("agreement", {})
    for kname, prior in sorted(static_report.priors.items()):
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


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.trace import TraceConfig, run_traced, text_summary, write_artifacts

    config = _machine_config(args)
    spec = get(args.workload)
    trace_config = TraceConfig(sample_interval=args.sample_interval)
    policy = PolicySpec(args.policy, args.threads).build()
    traced = run_traced(spec.build(args.scale), policy, config,
                        trace_config=trace_config)
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


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServeConfig, run_server

    config = ServeConfig(
        host=args.host, port=args.port,
        queue_depth=args.queue_depth, retry_after=args.retry_after,
        workers=args.workers, max_batch=args.max_batch,
        batch_window=args.batch_window,
        request_timeout=args.request_timeout,
        jobs=args.jobs, job_timeout=args.timeout,
        cache_dir=args.cache_dir, no_cache=args.no_cache,
        preflight=args.preflight, manifest_path=args.manifest)

    def announce(line: str, flush: bool = True) -> None:
        print(line, file=sys.stderr, flush=flush)

    server = asyncio.run(run_server(config, announce=announce))
    print(f"repro serve: drained; {server.manifest.summary()}",
          file=sys.stderr)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.serve import run_loadgen_blocking
    from repro.serve.loadgen import format_report_json

    if args.synthetic:
        payload: dict = {"synthetic": {
            "cs_fraction": args.cs_fraction, "bus_lines": args.bus_lines,
            "iterations": args.iterations}}
    else:
        if not args.workload:
            raise ReproError("give a workload name or --synthetic")
        payload = {"workload": args.workload, "scale": args.scale}
    policy = PolicySpec(args.policy, args.threads)  # what /v1 would answer 400
    payload["policy"] = policy.kind
    if policy.threads is not None:
        payload["threads"] = policy.threads

    report = run_loadgen_blocking(
        args.host, args.port, payload, rps=args.rps,
        duration=args.duration, endpoint=args.endpoint,
        timeout=args.request_timeout)
    if args.json:
        print(format_report_json(report))
    else:
        print(report.format())
    if report.errors or report.error_5xx:
        return 1
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    result = FIGURES[args.name].run(runner)
    print(result.format())
    if runner.manifest.entries:
        _finish_jobs(args, runner)
    elif args.manifest:
        print(f"note: figure {args.name!r} has no simulated panels; "
              f"no manifest written", file=sys.stderr)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    config = _machine_config(args)
    counts = _parse_thread_list(args.threads)
    _warn_counts_over_cores(counts, config)
    static_counts = [t for t in sorted(set(counts))
                     if t <= config.num_cores]
    # PolicySpec rejects a name the registry does not hold.
    policies = [kind.strip() for kind in args.policies.split(",")
                if kind.strip()]
    if not policies:
        raise ReproError("policy list is empty")
    if "static" in policies and not static_counts:
        raise ReproError("no static thread counts within the core count")

    specs: list[JobSpec] = []
    for name in args.workloads:
        ref = WorkloadRef(name=get(name).name, scale=args.scale)
        for kind in policies:
            # Only the fixed-team policy has a thread-count axis.
            teams = static_counts if kind == "static" else [None]
            specs.extend(JobSpec(workload=ref, policy=PolicySpec(kind, t),
                                 config=config) for t in teams)

    runner = _make_runner(args)
    resolutions = runner.resolve(specs)
    raise_unserved(specs, resolutions)
    jobs = []
    for spec, resolution in zip(specs, resolutions):
        res = resolution.app_result()
        jobs.append({
            "workload": spec.workload.name,
            "scale": spec.workload.scale,
            "policy": spec.policy.label,
            "threads": list(res.threads_used),
            "cycles": res.cycles,
            "power": res.power,
            "bus_utilization": res.result.bus_utilization,
            "key": resolution.key,
            "status": resolution.status,
        })
    _finish_jobs(args, runner, quiet=True)
    if args.json:
        print(json.dumps({"jobs": jobs,
                          "counts": runner.manifest.counts}, indent=2))
    else:
        rows = [(j["workload"], j["policy"],
                 "/".join(map(str, j["threads"])), f"{j['cycles']:,}",
                 f"{j['power']:.1f}", f"{j['bus_utilization']:.1%}",
                 j["status"]) for j in jobs]
        print(ascii_table(("workload", "policy", "threads", "cycles",
                           "power", "bus util", "status"), rows))
        print(f"\n{runner.manifest.summary()}")
        if args.manifest:
            print(f"manifest written to {args.manifest}", file=sys.stderr)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.analysis.report import ascii_table as _table
    from repro.faults import FaultPlan, sites_table
    from repro.faults.chaos import (
        CHAOS_SCHEMA,
        default_specs,
        example_plan,
        run_chaos_batch,
        run_chaos_serve,
    )

    if args.list_sites:
        print(_table(("site", "layer", "kinds", "description"),
                     sites_table()))
        return 0
    plan = (FaultPlan.load(args.plan) if args.plan else example_plan())
    if args.seed is not None:
        plan = plan.with_seed(args.seed)
    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    specs = default_specs(workloads=workloads, threads=args.threads,
                          scale=args.scale)
    reports = []
    if args.mode in ("batch", "both"):
        reports.append(run_chaos_batch(plan, specs, jobs=args.jobs))
    if args.mode in ("serve", "both"):
        reports.append(run_chaos_serve(plan, specs,
                                       attempts=args.attempts))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Feedback-Driven Threading (ASPLOS 2008) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_machine_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cores", type=int, default=None,
                       help="core count (default: 32)")
        p.add_argument("--bandwidth", type=float, default=None,
                       help="bus bandwidth factor (e.g. 0.5, 2.0)")
        p.add_argument("--smt", type=int, default=None,
                       help="SMT contexts per core (Section 9 extension)")
        p.add_argument("--scale", type=float, default=0.5,
                       help="input-set scale factor (default 0.5)")

    def add_job_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for independent runs "
                            "(default 1: in-process)")
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result-cache directory (default: "
                            "$REPRO_CACHE_DIR or ~/.cache/repro)")
        p.add_argument("--no-cache", action="store_true",
                       help="neither read nor write the result cache")
        p.add_argument("--manifest", default=None, metavar="FILE",
                       help="write a JSON run manifest (job keys, "
                            "status, wall time, cache hit/miss)")
        p.add_argument("--timeout", type=float, default=None, metavar="SEC",
                       help="per-job timeout for --jobs > 1")
        p.add_argument("--trace-dir", default=None, metavar="DIR",
                       help="record a trace for every computed job and "
                            "write its artifacts under DIR/<job key>/ "
                            "(cache hits are not re-traced)")
        p.add_argument("--preflight", action="store_true",
                       help="statically verify each workload before "
                            "dispatch and refuse jobs with provable "
                            "hangs or lock faults (verdicts are cached)")

    p_list = sub.add_parser("list", help="list the Table 2 workloads")
    p_list.set_defaults(func=_cmd_list)

    p_machine = sub.add_parser("machine", help="print the machine (Table 1)")
    add_machine_args(p_machine)
    p_machine.set_defaults(func=_cmd_machine)

    p_run = sub.add_parser("run", help="run one workload under a policy")
    p_run.add_argument("workload", help="Table 2 workload name")
    p_run.add_argument("--policy", choices=tuple(POLICIES), default="fdt")
    p_run.add_argument("--threads", type=int, default=None,
                       help="thread count for --policy static")
    p_run.add_argument("--report", default=None, metavar="FILE",
                       help="write the full machine-stats JSON to FILE")
    p_run.add_argument("--trace", default=None, metavar="DIR",
                       help="record a trace and write its artifacts "
                            "(Perfetto JSON, counters CSV, decision log, "
                            "summary) to DIR")
    p_run.add_argument("--json", action="store_true",
                       help="print the machine-readable run result")
    add_machine_args(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="static thread-count sweep")
    p_sweep.add_argument("workload", help="Table 2 workload name")
    p_sweep.add_argument("--threads", default="1,2,4,8,16,32",
                         help="comma-separated thread counts")
    p_sweep.add_argument("--json", action="store_true",
                         help="print the machine-readable sweep result")
    add_machine_args(p_sweep)
    add_job_args(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_check = sub.add_parser(
        "check",
        help="thread-sanitize a workload (races, lock order, discipline), "
             "optionally with ahead-of-run static analysis")
    p_check.add_argument("workload", nargs="?", default=None,
                         help="Table 2 workload name, or a fixture "
                              "(synthetic-racy, synthetic-lock-inversion, "
                              "synthetic-unheld-unlock, static-deadlock, "
                              "static-barrier-mismatch, "
                              "static-counter-in-cs)")
    p_check.add_argument("--all", action="store_true",
                         help="check every Table 2 workload")
    p_check.add_argument("--threads", type=int, default=4,
                         help="static team size for the checked run "
                              "(default 4; clamped to >= 2)")
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
    add_machine_args(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_trace = sub.add_parser(
        "trace",
        help="run one workload with the tracer attached and export "
             "Perfetto/CSV/decision-log artifacts")
    p_trace.add_argument("workload", help="Table 2 workload name")
    p_trace.add_argument("--policy", choices=tuple(POLICIES),
                         default="fdt")
    p_trace.add_argument("--threads", type=int, default=None,
                         help="thread count for --policy static")
    p_trace.add_argument("--sample-interval", type=int, default=1000,
                         metavar="CYCLES",
                         help="counter-sample spacing (default 1000)")
    p_trace.add_argument("--out", default="trace-out", metavar="DIR",
                         help="artifact directory (default: trace-out)")
    p_trace.add_argument("--json", action="store_true",
                         help="print the machine-readable trace summary")
    add_machine_args(p_trace)
    p_trace.set_defaults(func=_cmd_trace)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure/table")
    p_fig.add_argument("name", choices=sorted(FIGURES))
    add_job_args(p_fig)
    p_fig.set_defaults(func=_cmd_figure)

    p_serve = sub.add_parser(
        "serve",
        help="serve simulations, sweeps, and FDT decisions over HTTP "
             "(request coalescing, admission control, /metrics)")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8080,
                         help="bind port; 0 picks an ephemeral port "
                              "(default 8080)")
    p_serve.add_argument("--queue-depth", type=int, default=64,
                         metavar="N",
                         help="admission-control queue bound; overload "
                              "beyond it is shed with 429 (default 64)")
    p_serve.add_argument("--retry-after", type=float, default=1.0,
                         metavar="SEC",
                         help="Retry-After advertised on shed responses "
                              "(default 1.0)")
    p_serve.add_argument("--workers", type=int, default=2, metavar="N",
                         help="concurrent simulation batches (default 2)")
    p_serve.add_argument("--max-batch", type=int, default=8, metavar="N",
                         help="cache misses folded into one job "
                              "submission (default 8)")
    p_serve.add_argument("--batch-window", type=float, default=0.0,
                         metavar="SEC",
                         help="wait this long for more misses before "
                              "dispatching a batch (default 0)")
    p_serve.add_argument("--request-timeout", type=float, default=None,
                         metavar="SEC",
                         help="per-batch wall-clock bound; requests "
                              "over it answer 504 (default: none)")
    p_serve.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes per batch (default 1: "
                              "simulate in the worker thread)")
    p_serve.add_argument("--timeout", type=float, default=None,
                         metavar="SEC",
                         help="per-job timeout inside the process pool "
                              "(--jobs > 1 only)")
    p_serve.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="result-cache directory (default: "
                              "$REPRO_CACHE_DIR or ~/.cache/repro)")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="serve without the on-disk result cache")
    p_serve.add_argument("--manifest", default=None, metavar="FILE",
                         help="flush the run manifest here on drain")
    p_serve.add_argument("--preflight", action="store_true",
                         help="statically verify workloads before "
                              "dispatch (422 on provable faults)")
    p_serve.set_defaults(func=_cmd_serve)

    p_loadgen = sub.add_parser(
        "loadgen",
        help="drive open-loop load at a target RPS against a running "
             "server and report latency/hit-rate/shed-rate")
    p_loadgen.add_argument("workload", nargs="?", default=None,
                           help="Table 2 workload name (or --synthetic)")
    p_loadgen.add_argument("--host", default="127.0.0.1")
    p_loadgen.add_argument("--port", type=int, default=8080)
    p_loadgen.add_argument("--endpoint", default="/v1/run",
                           choices=("/v1/run", "/v1/fdt"),
                           help="endpoint to drive (default /v1/run)")
    p_loadgen.add_argument("--rps", type=float, default=20.0,
                           help="target open-loop request rate "
                                "(default 20)")
    p_loadgen.add_argument("--duration", type=float, default=2.0,
                           metavar="SEC",
                           help="generation window (default 2.0)")
    p_loadgen.add_argument("--request-timeout", type=float, default=60.0,
                           metavar="SEC",
                           help="client-side per-request timeout "
                                "(default 60)")
    p_loadgen.add_argument("--scale", type=float, default=0.5,
                           help="input-set scale factor (default 0.5)")
    p_loadgen.add_argument("--policy", choices=tuple(POLICIES),
                           default="static")
    p_loadgen.add_argument("--threads", type=int, default=None,
                           help="thread count for --policy static")
    p_loadgen.add_argument("--synthetic", action="store_true",
                           help="drive a synthetic kernel instead of a "
                                "registry workload")
    p_loadgen.add_argument("--cs-fraction", type=float, default=0.0)
    p_loadgen.add_argument("--bus-lines", type=int, default=0)
    p_loadgen.add_argument("--iterations", type=int, default=64)
    p_loadgen.add_argument("--json", action="store_true",
                           help="print the machine-readable report")
    p_loadgen.set_defaults(func=_cmd_loadgen)

    p_batch = sub.add_parser(
        "batch",
        help="run a workload x policy x thread-count grid as jobs")
    p_batch.add_argument("workloads", nargs="+", metavar="WORKLOAD",
                         help="Table 2 workload name(s)")
    p_batch.add_argument("--threads", default="1,2,4,8,16,32",
                         help="comma-separated counts for static policies")
    p_batch.add_argument("--policies", default="static",
                         help="comma-separated subset of "
                              f"{','.join(POLICIES)} (default: static)")
    p_batch.add_argument("--json", action="store_true",
                         help="print the machine-readable batch result")
    add_machine_args(p_batch)
    add_job_args(p_batch)
    p_batch.set_defaults(func=_cmd_batch)

    p_chaos = sub.add_parser(
        "chaos",
        help="run a fault-injection plan and judge recovery invariants")
    p_chaos.add_argument("--plan", default=None, metavar="FILE",
                         help="fault plan JSON (default: the built-in "
                              "example plan)")
    p_chaos.add_argument("--mode", choices=("batch", "serve", "both"),
                         default="both",
                         help="drive a JobRunner batch, a live server, "
                              "or both (default: both)")
    p_chaos.add_argument("--workloads", default="PageMine,ISort",
                         help="comma-separated Table 2 workload names")
    p_chaos.add_argument("--threads", type=int, default=2,
                         help="static thread count per chaos spec")
    p_chaos.add_argument("--scale", type=float, default=0.05,
                         help="input-set scale of the chaos specs")
    p_chaos.add_argument("--seed", type=int, default=None,
                         help="override the plan's seed")
    p_chaos.add_argument("--jobs", type=int, default=1,
                         help="worker processes for the batch run")
    p_chaos.add_argument("--attempts", type=int, default=25,
                         help="per-spec request retries in serve mode")
    p_chaos.add_argument("--json", action="store_true",
                         help="print the machine-readable report")
    p_chaos.add_argument("--report", default=None, metavar="FILE",
                         help="also write the full JSON report here")
    p_chaos.add_argument("--list-sites", action="store_true",
                         help="print the registered fault sites and exit")
    p_chaos.set_defaults(func=_cmd_chaos)

    from repro.obs.cli import add_obs_subparser
    add_obs_subparser(sub)

    # Global logging flags, accepted by every subcommand (after the
    # subcommand name): `repro serve --log-json --log-level INFO`.
    for subparser in set(sub.choices.values()):
        subparser.add_argument(
            "--log-level", default=None, metavar="LEVEL",
            help="structured-log level for every repro subsystem "
                 "(DEBUG, INFO, WARNING, ERROR; default WARNING)")
        subparser.add_argument(
            "--log-json", action="store_true",
            help="emit logs as JSON lines (trace-correlated) instead "
                 "of human-readable text")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.obs import configure_logging
    configure_logging(level=getattr(args, "log_level", None) or "WARNING",
                      json_lines=bool(getattr(args, "log_json", False)))
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - module runner
    sys.exit(main())
