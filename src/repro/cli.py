"""Command-line interface: run workloads, sweeps, and paper figures.

Usage (after ``pip install -e .``; README.md walks through the rest)::

    python -m repro list                         # Table 2 roster
    python -m repro machine                      # Table 1 dump
    python -m repro run PageMine --policy fdt    # one application run
    python -m repro run ED --policy static --threads 8 --json
    python -m repro run EP --trace tr/           # + trace artifacts
    python -m repro sweep ED --jobs 8            # points on a process pool
    python -m repro figure fig8 --jobs 8 --manifest fig8.json
    python -m repro batch EP PageMine --threads 1,2,4 --policies static,fdt

``build_parser`` is a loop over :data:`REGISTRARS`, callables of one
signature ``register(sub, parents)``: this module mounts the commands
above; ``repro.{check,serve,faults,obs}.cli`` mount their own,
beside the code they drive, and are imported only here.  ``parents``
holds the ``machine``, ``jobs`` and ``logging`` flag groups, each
declared once (:func:`_parents`) as an argparse parent parser that a
leaf takes via ``parents=[...]``.  A flag that fills a config field or
a library default reads its ``default=`` from that object.

Registration loads only the modules argparse needs — the policy names,
``MachineConfig``'s defaults, ``JobRunner``'s signature, the figure
names — and a handler imports anything else it drives (the tracer, the
machine report, the oracle), so a process loads only the modules its
command runs.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import asdict
from pathlib import Path

from repro.analysis.report import ascii_table
from repro.analysis.sweep import sweep_threads
from repro.check import cli as check_cli
from repro.errors import JobError, ReproError
from repro.experiments import FIGURES
from repro.experiments.figures import table1_text
from repro.faults import cli as faults_cli
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
from repro.jobs.spec import check_scale
from repro.obs import cli as obs_cli
from repro.obs import configure_logging
from repro.serve import cli as serve_cli
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.workloads import all_specs, get

_LOG_DEFAULTS = inspect.signature(configure_logging).parameters


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


def _thread_counts(args: argparse.Namespace,
                   config: MachineConfig) -> tuple[int, ...]:
    """``--threads`` parsed, flagging the counts a sweep silently skips."""
    counts = _parse_thread_list(args.threads)
    skipped = sorted({t for t in counts if t > config.num_cores})
    if skipped:
        listed = ",".join(map(str, skipped))
        print(f"warning: skipping thread counts above the "
              f"{config.num_cores}-core machine: {listed}", file=sys.stderr)
    return counts


def _make_runner(args: argparse.Namespace) -> JobRunner:
    """Build the job runner the jobs-aware commands share."""
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return JobRunner(cache=cache, jobs=args.jobs, timeout=args.timeout,
                     trace_dir=args.trace_dir)


def _finish_jobs(args: argparse.Namespace, runner: JobRunner) -> None:
    """Write the manifest if requested; summarize to stderr."""
    if args.manifest:
        runner.manifest.write(args.manifest)
    print(f"jobs: {runner.manifest.summary()}", file=sys.stderr)


def _cmd_list(args: argparse.Namespace) -> int:
    rows = [(s.name, s.category.value, s.description, s.repro_input)
            for s in all_specs()]
    print(ascii_table(("workload", "class", "description", "input"), rows))
    return 0


def _cmd_machine(args: argparse.Namespace) -> int:
    print(FIGURES["table1"].title)
    print(table1_text(MachineConfig.baseline_with(
        args.cores, args.bandwidth, args.smt)))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis.inspection import machine_report_json
    from repro.trace import TraceRecorder, text_summary, write_artifacts

    config = MachineConfig.baseline_with(args.cores, args.bandwidth, args.smt)
    spec = get(args.workload)
    # The spec /v1/run would build: it refuses what the machine cannot run.
    job = JobSpec(workload=WorkloadRef(name=spec.name, scale=args.scale),
                  policy=PolicySpec(args.policy, args.threads), config=config)
    recorder = TraceRecorder() if args.trace is not None else None
    # Closed once the run is over; --report reads its counters after.
    with Machine(config, observer=recorder) as machine:
        result = run_application(job.workload.build(), job.policy.build(),
                                 machine=machine)
    # Every side effect comes before the renderer: --json changes only
    # what is printed.
    trace_paths = write_artifacts(recorder.data, args.trace) if recorder else None
    if args.report is not None:
        Path(args.report).write_text(machine_report_json(machine))
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
        if recorder is not None:
            t = recorder.data
            payload["trace"] = {
                "spans": len(t.spans), "samples": len(t.samples),
                "marks": len(t.marks), "decisions": len(t.decisions),
                "dropped_spans": t.dropped_spans,
                "dropped_samples": t.dropped_samples,
                "artifacts": {name: str(path)
                              for name, path in trace_paths.items()}}
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
        print(f"machine report written to {args.report}")
    if recorder is not None:
        print(text_summary(recorder.data))
        print(f"trace artifacts written to {args.trace}:")
        for name, path in sorted(trace_paths.items()):
            print(f"  {name}: {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.oracle import oracle_choice

    config = MachineConfig.baseline_with(args.cores, args.bandwidth, args.smt)
    spec = get(args.workload)
    counts = _thread_counts(args, config)
    runner = _make_runner(args)
    sweep = sweep_threads(WorkloadRef(name=spec.name, scale=args.scale),
                          counts, config, runner=runner)
    oracle = oracle_choice(sweep)
    if args.json:
        print(json.dumps({
            "workload": spec.name,
            "scale": args.scale,
            "points": [asdict(p) for p in sweep.points],
            "best_threads": sweep.best_threads,
            "oracle_threads": oracle.threads,
        }, indent=2))
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
    config = MachineConfig.baseline_with(args.cores, args.bandwidth, args.smt)
    counts = _thread_counts(args, config)
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
    if args.manifest:
        runner.manifest.write(args.manifest)
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


def _scale(text: str) -> float:
    """``--scale``: refused by argparse (exit 2) unless a job takes it."""
    try:
        return check_scale(float(text))
    except (ValueError, JobError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parents() -> argparse.Namespace:
    """The shared flag groups, by name: ``machine``, ``jobs``, ``logging``."""
    machine = argparse.ArgumentParser(add_help=False)
    machine.add_argument("--cores", type=int, default=None,
                         help="core count (default: "
                              f"{MachineConfig().num_cores})")
    machine.add_argument("--bandwidth", type=float, default=None,
                         help="bus bandwidth factor (e.g. 0.5, 2.0)")
    machine.add_argument("--smt", type=int, default=None,
                         help="SMT contexts per core (Section 9 extension)")
    machine.add_argument("--scale", type=_scale, default=0.5,
                         help="input-set scale factor (default 0.5)")

    runner = inspect.signature(JobRunner).parameters
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=int, metavar="N",
                      default=runner["jobs"].default,
                      help="worker processes for independent runs "
                           "(default %(default)s: in-process)")
    jobs.add_argument("--cache-dir", default=None, metavar="DIR",
                      help="result-cache directory (default: "
                           "$REPRO_CACHE_DIR or ~/.cache/repro)")
    jobs.add_argument("--no-cache", action="store_true",
                      help="neither read nor write the result cache")
    jobs.add_argument("--manifest", default=None, metavar="FILE",
                      help="write a JSON run manifest (job keys, "
                           "status, wall time, cache hit/miss)")
    jobs.add_argument("--timeout", type=float, default=None, metavar="SEC",
                      help="per-job timeout for --jobs > 1")

    # Defaults live on the top-level parser: a subparser's own would
    # overwrite a flag given one level up (``repro obs --log-json list``).
    logging = argparse.ArgumentParser(add_help=False,
                                      argument_default=argparse.SUPPRESS)
    logging.add_argument(
        "--log-level", type=str.upper, choices=("DEBUG", "INFO", "WARNING", "ERROR"),
        help="structured-log level for every repro subsystem "
             f"(default {_LOG_DEFAULTS['level'].default})")
    logging.add_argument(
        "--log-json", action="store_true",
        help="emit logs as JSON lines (trace-correlated) instead "
             "of human-readable text")
    return argparse.Namespace(machine=machine, jobs=jobs, logging=logging)


def register(sub: argparse._SubParsersAction,
             parents: argparse.Namespace) -> None:
    """Mount the reproduction commands: list machine run sweep figure batch."""
    traced_jobs = argparse.ArgumentParser(add_help=False,
                                          parents=[parents.jobs])
    traced_jobs.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="record a trace for every computed job and write its "
             "artifacts under DIR/<job key>/ (cache hits are not "
             "re-traced)")

    sub.add_parser("list", parents=[parents.logging],
                   help="list the Table 2 workloads"
                   ).set_defaults(func=_cmd_list)
    sub.add_parser("machine", parents=[parents.machine, parents.logging],
                   help="print the machine (Table 1)"
                   ).set_defaults(func=_cmd_machine)

    p_run = sub.add_parser(
        "run", parents=[parents.machine, parents.logging],
        help="run one workload under a policy")
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
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep", parents=[parents.machine, traced_jobs, parents.logging],
        help="static thread-count sweep")
    p_sweep.add_argument("workload", help="Table 2 workload name")
    p_sweep.add_argument("--threads", default="1,2,4,8,16,32",
                         help="comma-separated thread counts")
    p_sweep.add_argument("--json", action="store_true",
                         help="print the machine-readable sweep result")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fig = sub.add_parser("figure", parents=[traced_jobs, parents.logging],
                           help="regenerate a paper figure/table")
    p_fig.add_argument("name", choices=sorted(FIGURES))
    p_fig.set_defaults(func=_cmd_figure)

    p_batch = sub.add_parser(
        "batch", parents=[parents.machine, traced_jobs, parents.logging],
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
    p_batch.set_defaults(func=_cmd_batch)


#: Who mounts the subcommands: this module, then one registrar per subsystem.
REGISTRARS = (register, check_cli.register, serve_cli.register,
              faults_cli.register, obs_cli.register)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Feedback-Driven Threading (ASPLOS 2008) reproduction")
    parser.set_defaults(log_level=_LOG_DEFAULTS["level"].default,
                        log_json=_LOG_DEFAULTS["json_lines"].default)
    sub = parser.add_subparsers(dest="command", required=True)
    parents = _parents()
    for mount in REGISTRARS:
        mount(sub, parents)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(level=args.log_level, json_lines=args.log_json)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
