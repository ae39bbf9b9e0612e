"""The ``repro serve`` and ``repro loadgen`` commands::

    python -m repro serve --port 8080            # HTTP experiment server
    python -m repro loadgen PageMine --rps 50    # open-loop load + report

``loadgen`` exits 1 on any transport error or 5xx.  A flag that fills a
:class:`~repro.serve.config.ServeConfig` field, or a parameter of
:func:`~repro.serve.loadgen.run_loadgen` or its client, defaults to that
field or parameter; the one deliberate exception is ``serve --port``
(8080 here, ephemeral in the library).  Registration imports only
:mod:`repro.serve.config`; each handler imports what it drives.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import ReproError
from repro.fdt.policies import POLICIES
from repro.serve.config import (
    CLIENT_HOST,
    CLIENT_PORT,
    CLIENT_TIMEOUT,
    LOADGEN_DURATION,
    LOADGEN_ENDPOINT,
    LOADGEN_RPS,
    ServeConfig,
)


def serve_config(args: argparse.Namespace) -> ServeConfig:
    """The server configuration ``repro serve``'s flags describe."""
    return ServeConfig(
        host=args.host, port=args.port,
        queue_depth=args.queue_depth, workers=args.workers,
        request_timeout=args.request_timeout,
        jobs=args.jobs, job_timeout=args.timeout,
        cache_dir=args.cache_dir, no_cache=args.no_cache,
        manifest_path=args.manifest)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    from functools import partial

    from repro.serve.server import run_server

    server = asyncio.run(run_server(
        serve_config(args), announce=partial(print, file=sys.stderr)))
    print(f"repro serve: drained; {server.manifest.summary()}",
          file=sys.stderr)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.jobs import JobSpec, PolicySpec, WorkloadRef
    from repro.serve.loadgen import run_loadgen_blocking
    from repro.serve.schema import request_body
    from repro.sim.config import MachineConfig
    from repro.workloads import get

    if args.synthetic:
        workload = WorkloadRef.synthetic(
            cs_fraction=args.cs_fraction, bus_lines=args.bus_lines,
            iterations=args.iterations)
    elif args.workload:
        workload = WorkloadRef(name=get(args.workload).name,
                               scale=args.scale)
    else:
        raise ReproError("give a workload name or --synthetic")
    payload = request_body(JobSpec(
        workload=workload, policy=PolicySpec(args.policy, args.threads),
        config=MachineConfig.asplos08_baseline()))

    report = run_loadgen_blocking(
        args.host, args.port, payload, rps=args.rps,
        duration=args.duration, endpoint=args.endpoint,
        timeout=args.request_timeout)
    print(json.dumps(report.to_dict(), indent=2) if args.json
          else report.format())
    if report.errors or report.error_5xx:
        return 1
    return 0


def register(sub: argparse._SubParsersAction,
             parents: argparse.Namespace) -> None:
    """Mount ``repro serve`` and ``repro loadgen`` (the contract is in :mod:`repro.cli`)."""
    config = ServeConfig()
    p_serve = sub.add_parser(
        "serve", parents=[parents.jobs, parents.logging],
        help="serve simulations, sweeps, and FDT decisions over HTTP "
             "(request coalescing, admission control, /metrics)")
    p_serve.add_argument("--port", type=int, default=8080,
                         help="bind port; 0 picks an ephemeral port "
                              "(default %(default)s)")
    for field, metavar, text in (
            ("host", "HOST", "bind address"),
            ("queue_depth", "N", "admission-control queue bound; "
             "overload beyond it is shed with 429"),
            ("workers", "N", "concurrent simulation batches")):
        default = getattr(config, field)  # the flag's type is the field's
        p_serve.add_argument(f"--{field.replace('_', '-')}", metavar=metavar,
                             type=type(default), default=default,
                             help=f"{text} (default %(default)s)")
    p_serve.add_argument("--request-timeout", type=float, metavar="SEC",
                         default=config.request_timeout,
                         help="per-batch wall-clock bound; requests "
                              "over it answer 504 (default: none)")
    p_serve.set_defaults(func=_cmd_serve)

    p_loadgen = sub.add_parser(
        "loadgen", parents=[parents.logging],
        help="drive open-loop load at a target RPS against a running "
             "server and report latency/hit-rate/shed-rate")
    p_loadgen.add_argument("workload", nargs="?", default=None,
                           help="Table 2 workload name (or --synthetic)")
    p_loadgen.add_argument("--host", default=CLIENT_HOST)
    p_loadgen.add_argument("--port", type=int, default=CLIENT_PORT)
    p_loadgen.add_argument("--endpoint", choices=("/v1/run", "/v1/fdt"),
                           default=LOADGEN_ENDPOINT,
                           help="endpoint to drive (default %(default)s)")
    for flag, default, metavar, text in (
            ("--rps", LOADGEN_RPS, None, "target open-loop request rate"),
            ("--duration", LOADGEN_DURATION, "SEC", "generation window"),
            ("--request-timeout", CLIENT_TIMEOUT, "SEC",
             "client-side per-request timeout")):
        p_loadgen.add_argument(flag, type=float, metavar=metavar,
                               default=default,
                               help=f"{text} (default %(default)s)")
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
