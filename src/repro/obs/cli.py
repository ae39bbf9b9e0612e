"""The ``repro obs`` command: query the persistent run registry.

Four verbs over :class:`repro.obs.runreg.RunRegistry`:

* ``list`` — every row (filterable by status/workload);
* ``show <key>`` — the latest row for a key, prefix-matched like an
  abbreviated git hash, plus how many times the key was resolved;
* ``tail`` — the last N rows;
* ``report`` — aggregate summary (rows, dispositions, hit rate, wall
  time spent computing).

The registry location defaults to ``<cache root>/obs`` and follows
``--dir`` / ``REPRO_CACHE_DIR``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.runreg import RunRegistry, format_records


def _registry(args: argparse.Namespace) -> RunRegistry:
    return RunRegistry(args.dir)


def _cmd_list(args: argparse.Namespace) -> int:
    registry = _registry(args)
    rows = registry.records()
    if args.status:
        rows = [r for r in rows if r.status == args.status]
    if args.workload:
        rows = [r for r in rows if r.workload == args.workload]
    if args.limit is not None:
        rows = rows[-args.limit:]
    if args.json:
        print(json.dumps([r.to_dict() for r in rows], indent=2))
        return 0
    if not rows:
        print(f"no runs recorded under {registry.path}")
        return 0
    print(format_records(rows))
    print(f"{len(rows)} row(s) from {registry.path}")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    registry = _registry(args)
    record = registry.get(args.key)
    if record is None:
        print(f"error: no run registered for key {args.key!r} "
              f"under {registry.path}", file=sys.stderr)
        return 1
    doc = record.to_dict()
    doc["resolutions"] = len(registry.history(args.key))
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_tail(args: argparse.Namespace) -> int:
    registry = _registry(args)
    rows = registry.tail(args.count)
    if args.json:
        print(json.dumps([r.to_dict() for r in rows], indent=2))
        return 0
    if not rows:
        print(f"no runs recorded under {registry.path}")
        return 0
    print(format_records(rows))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    registry = _registry(args)
    summary = registry.report()
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    print(f"run registry: {summary['path']}")
    print(f"  rows: {summary['rows']}  "
          f"unique keys: {summary['unique_keys']}")
    for status, count in summary["by_status"].items():
        print(f"  {status}: {count}")
    for workload, count in summary["by_workload"].items():
        print(f"  workload {workload}: {count}")
    print(f"  hit rate: {summary['hit_rate']:.1%}")
    print(f"  compute wall time: "
          f"{summary['computed_wall_time_total']:.3f}s total, "
          f"{summary['computed_wall_time_mean']:.3f}s mean")
    return 0


def register(sub: argparse._SubParsersAction,
             parents: argparse.Namespace) -> None:
    """Mount ``repro obs`` (the contract is in :mod:`repro.cli`)."""
    p_obs = sub.add_parser(
        "obs", parents=[parents.logging],
        help="query the persistent run registry (provenance rows "
             "written by the jobs layer under the cache dir)")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dir", default=None, metavar="DIR",
                        help="registry directory (default: "
                             "<cache root>/obs)")
    common.add_argument("--json", action="store_true",
                        help="print machine-readable rows")
    leaf = [common, parents.logging]

    p_list = obs_sub.add_parser("list", parents=leaf,
                                help="list recorded runs")
    p_list.add_argument("--status", default=None,
                        help="filter by disposition (hit, computed, "
                             "failed, timeout, preflight-failed)")
    p_list.add_argument("--workload", default=None,
                        help="filter by workload name")
    p_list.add_argument("--limit", type=int, default=None, metavar="N",
                        help="keep only the last N matching rows")
    p_list.set_defaults(func=_cmd_list)

    p_show = obs_sub.add_parser(
        "show", parents=leaf, help="show the latest run for a spec key")
    p_show.add_argument("key", help="spec content key (prefix accepted)")
    p_show.set_defaults(func=_cmd_show)

    p_tail = obs_sub.add_parser("tail", parents=leaf,
                                help="show the last N runs")
    p_tail.add_argument("-n", "--count", type=int, default=10,
                        help="rows to show (default 10)")
    p_tail.set_defaults(func=_cmd_tail)

    p_report = obs_sub.add_parser(
        "report", parents=leaf,
        help="aggregate summary over all recorded runs")
    p_report.set_defaults(func=_cmd_report)
