"""Every function under ``src/repro`` runs under a shipped command.

``tests/test_callers.py`` proves that each public name is *referenced*;
a referenced function can still be one that nothing *executes*.  This
script runs every command line of :data:`roster.ROSTER` (which checks
each row's exit status and output as it goes) and then a few machines no
flag builds, all under a trace hook on every thread, and fails on a
failed row and on any function defined under ``src/repro`` that none of
them called, unless :data:`ALLOWED` names it with a reason.  It also
fails on an allow-list entry that ran, or that names no function.

The machine variants: one workload each on LIFO lock grants, closed-page
DRAM on the small test machine, ring link occupancy 4 and SMT-2 with
compact placement, and one run with the trace recorder and the
sanitizer attached together.

It takes minutes, more than tier-1 affords, so it is the CI step that
runs the shipped commands::

    PYTHONPATH=src python tests/scan_executed.py

A function only tests call belongs in ``tests/`` (the component
operations only the memory walk's specification drives are functions
in ``tests/spec_memsys.py``), one only an example or a benchmark calls
beside it, or it goes.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
import threading
from collections import Counter
from dataclasses import replace
from pathlib import Path

import roster
import test_callers

ROOT = Path(__file__).resolve().parents[1]
PACKAGES = (ROOT / "src" / "repro",)

_OBSERVER_HOOK = ("observer base hook: a no-op default, overridden by every "
                  "observer that wants the event")
_BRANCH_MODEL = ("branch model: no workload emits a Branch op, until "
                 "ROADMAP 3(b) deletes it")
_HARNESS = ("benchmark harness: benchmarks/perf/{} calls it by name, and no "
            "shipped command does")
_RECOVERY = ("recovery: runs only when a cache entry on disk is corrupt "
             "or a write to it fails, which no working command causes")

#: ``qualified name -> reason``: the only functions allowed not to run.
#: A name that ends in a module or a class covers every function in it.
#: The workload oracles and test-isolation hooks only tests call are
#: ``tests/test_callers.py``'s, and stated there.
ALLOWED = {
    **test_callers.ALLOWED,
    **{f"repro.sim.observer.SimObserver.{hook}": _OBSERVER_HOOK for hook in (
        "on_region_begin", "on_region_end", "on_thread_exit",
        "on_lock_acquired", "on_lock_released", "on_barrier_arrive",
        "on_barrier_release")},
    "repro.sim.branch.GsharePredictor.update": _BRANCH_MODEL,
    "repro.bench.scenarios": _HARNESS.format("perf_probes.py (run.py "
                                             "--trace 1)"),
    "repro.experiments.fig14_combined.run_fig14":
        _HARNESS.format("perf_fig14.py"),
    "repro.fdt.runner.AppRunResult.mean_threads":
        _HARNESS.format("perf_layers.py"),
    "repro.serve.client.ServeClient.run":
        _HARNESS.format("perf_probes.py (run.py --trace 1)"),
    "repro.serve.thread.ServerThread.__enter__":
        _HARNESS.format("perf_probes.py"),
    "repro.serve.thread.ServerThread.__exit__":
        _HARNESS.format("perf_probes.py"),
    "repro.jobs.executor._pool_entry":
        "pool worker: runs in the worker processes a --jobs 2 row starts, "
        "where no hook is set",
    "repro.jobs.cache.ResultCache._quarantine": _RECOVERY,
    "repro.jobs.cache.ResultCache._discard": _RECOVERY,
    "repro.workloads.sconv._State.expected":
        "workload oracle: SConv's output computed another way, compared "
        "with the simulated one (a private class, which "
        "tests/test_callers.py does not list)",
}


def _name(node: ast.AST) -> str | None:
    """The name a decorator or a base class spells, dotted or not."""
    return getattr(node, "attr", getattr(node, "id", None))


def defined() -> dict[tuple[str, int], str]:
    """Every ``def`` in :data:`PACKAGES`: ``(file, first line) -> name``.

    A decorated function's code starts at its first decorator, so that
    is its first line here too.  A ``Protocol``'s methods and an
    ``abc.abstractmethod`` declare a type and are never called, so they
    are not counted."""
    found = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_name(d) == "abstractmethod"
                       for d in child.decorator_list):
                    continue
                name = prefix + child.name
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found[str(path), first] = name
                visit(child, path, f"{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                if not any(_name(base) == "Protocol"
                           for base in child.bases):
                    visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for package in PACKAGES:
        for path in sorted(package.rglob("*.py")):
            module = ".".join(path.relative_to(ROOT / "src")
                              .with_suffix("").parts)
            visit(ast.parse(path.read_text()), path.resolve(), f"{module}.")
    return found


def scan(out: Path) -> tuple[set[tuple[str, int]], list[str]]:
    """``(file, first line)`` of every code object the roster and the
    machine variants called, on any thread, and the roster's failures.

    A run is a command line of :data:`roster.ROSTER`, so the report, the
    JSON result and the trace exporters read the counters as they do for
    a user; the machines no flag builds run through ``Machine`` and
    ``run_application``."""
    called = set()

    def hook(frame, event, arg):
        called.add(frame.f_code)  # a "call" event: no line events follow

    def unhook() -> None:
        threading.settrace(None)
        sys.settrace(None)

    # A pool worker forked from here runs jobs, not the scan: unhooked.
    os.register_at_fork(after_in_child=unhook)
    sys.settrace(hook)
    threading.settrace(hook)
    try:
        # Imported under the hook, so that a function a module runs as it
        # loads (the observer fan-out's forwarders) counts as executed.
        from repro.check import ThreadSanitizer
        from repro.fdt.policies import POLICIES
        from repro.fdt.runner import run_application
        from repro.sim.config import MachineConfig
        from repro.sim.machine import Machine
        from repro.trace import TraceRecorder
        from repro.workloads import get

        failures = roster.run(roster.ROSTER, out)

        baseline = MachineConfig.asplos08_baseline()
        for workload, config, observers in (
                ("PageMine", replace(baseline, lock_grant_order="lifo"), ()),
                ("ED", replace(MachineConfig.small(), dram_open_page=False),
                 ()),
                ("ISort", replace(baseline, ring_link_occupancy=4), ()),
                ("EP", replace(baseline.with_smt(2), smt_placement="compact"),
                 ()),
                ("PageMine", baseline, (TraceRecorder(), ThreadSanitizer()))):
            with Machine(config, observers) as machine:
                run_application(get(workload).build(roster.SCALE),
                                POLICIES["fdt"](), machine=machine)
    finally:
        unhook()
    return ({(str(Path(file).resolve()), line) for file, line
             in {(code.co_filename, code.co_firstlineno) for code in called}},
            failures)


def _covers(entry: str, name: str) -> bool:
    return name == entry or name.startswith(entry + ".")


def main() -> int:
    functions = defined()
    with tempfile.TemporaryDirectory() as out:
        called, failures = scan(Path(out))
    unrun = {name for key, name in functions.items() if key not in called}
    ran = set(functions.values()) - unrun
    allowed = {name for name in unrun
               if any(_covers(entry, name) for entry in ALLOWED)}
    problems = [f"row failed: {failure}" for failure in failures]
    problems += [f"allow-listed without a '<category>: <why>' reason: {entry}"
                 for entry, reason in ALLOWED.items()
                 if not reason.partition(": ")[2].strip()]
    problems += [f"no run executes {name}" for name in sorted(unrun - allowed)]
    problems += [f"allow-listed, but executed or gone: {entry}"
                 for entry in sorted(ALLOWED)
                 if not any(_covers(entry, name) for name in unrun)
                 or any(_covers(entry, name) for name in ran)]
    print(f"{len(ran)} of {len(functions)} functions executed; "
          f"{len(allowed)} allow-listed")
    packages = Counter(name.split(".")[1] for name in functions.values())
    unrun_by = Counter(name.split(".")[1] for name in unrun)
    print("  ".join(f"{p} {packages[p] - unrun_by[p]}/{packages[p]}"
                    for p in sorted(packages)))
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
