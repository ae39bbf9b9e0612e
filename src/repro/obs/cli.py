"""The ``repro obs`` command: query the persistent run registry.

Three verbs over :class:`repro.obs.runreg.RunRegistry`:

* ``list`` — every row (filterable by status/workload), or with
  ``--limit N`` the last N of them;
* ``show <key>`` — the latest row for a key, prefix-matched like an
  abbreviated git hash, plus how many times the key was resolved; a
  prefix naming more than one key (or none, or the empty prefix) is
  an error that lists what it matched;
* ``report`` — aggregate summary (rows, dispositions, hit rate, wall
  time spent computing).

The registry location defaults to ``<cache root>/obs`` and follows
``--dir`` / ``REPRO_CACHE_DIR``.  Registration imports nothing past
argparse; each verb imports the registry it reads.
"""

from __future__ import annotations

import argparse
import json
import sys


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.obs.runreg import RunRegistry, format_records

    registry = RunRegistry(args.dir)
    rows = registry.records()
    if args.status:
        rows = [r for r in rows if r.status == args.status]
    if args.workload:
        rows = [r for r in rows if r.workload == args.workload]
    if args.limit is not None:
        if args.limit < 0:
            print(f"error: --limit must be >= 0, not {args.limit}",
                  file=sys.stderr)
            return 2
        rows = rows[-args.limit:] if args.limit else []
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
    from repro.obs.runreg import RunRegistry, format_records

    registry = RunRegistry(args.dir)
    rows = registry.lookup(args.key)
    if not rows:
        print(f"error: no run registered for key {args.key!r} "
              f"under {registry.path}", file=sys.stderr)
        return 1
    keys = list(dict.fromkeys(r.key for r in rows))
    if len(keys) > 1 or not args.key:
        print(f"error: key prefix {args.key!r} does not name one run; "
              f"it matches {len(keys)} key(s):", file=sys.stderr)
        for key in keys:
            print(f"  {key}", file=sys.stderr)
        return 1
    doc = rows[-1].to_dict()
    doc["resolutions"] = len(rows)
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.runreg import RunRegistry

    summary = RunRegistry(args.dir).report()
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
                        help="keep only the last N matching rows "
                             "(0 keeps none)")
    p_list.set_defaults(func=_cmd_list)

    p_show = obs_sub.add_parser(
        "show", parents=leaf, help="show the latest run for a spec key")
    p_show.add_argument("key", help="spec content key (prefix accepted)")
    p_show.set_defaults(func=_cmd_show)

    p_report = obs_sub.add_parser(
        "report", parents=leaf,
        help="aggregate summary over all recorded runs")
    p_report.set_defaults(func=_cmd_report)
