"""Every function under ``src/repro/sim`` and ``src/repro/isa`` runs.

``tests/test_callers.py`` proves that each public name is *referenced*;
a referenced function can still be one that no simulation *executes*.
This script runs a roster of simulations under a profile hook and fails
on any function defined in those two packages that none of them called,
unless :data:`ALLOWED` names it with a reason.  It also fails on an
allow-list entry that ran, or that names no function.

The roster: every Table 2 workload under ``fdt`` and under ``static``
with 32 threads on the Table 1 baseline, then one workload on each of
five variants — LIFO lock grants, closed-page DRAM on the small test
machine, ring link occupancy 4, SMT-2 with scatter placement and double
bus bandwidth, SMT-2 with compact placement — and one run with the trace
recorder and the sanitizer attached together.

It takes several seconds, more than tier-1 affords, so it is a CI step::

    PYTHONPATH=src python tests/scan_executed.py

A function only tests call belongs in ``tests/`` (the component
operations only the memory walk's specification drives are functions
in ``tests/spec_memsys.py``), or it goes.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Workload input scale of every run: the smallest that still executes
#: every function a full-scale roster does, and the one :data:`ALLOWED`
#: is checked at (a larger input could reach the S-victim recall).
SCALE = 0.01
PACKAGES = (ROOT / "src" / "repro" / "sim", ROOT / "src" / "repro" / "isa")

_OBSERVER_HOOK = ("observer base hook: a no-op default, overridden by every "
                  "observer that wants the event")
_BRANCH_MODEL = ("branch model: no workload emits a Branch op, until "
                 "ROADMAP 3(b) deletes it")

#: ``qualified name -> reason``: the only functions allowed not to run.
ALLOWED = {
    **{f"repro.sim.observer.SimObserver.{hook}": _OBSERVER_HOOK for hook in (
        "on_region_begin", "on_region_end", "on_thread_exit",
        "on_lock_acquired", "on_lock_released", "on_barrier_arrive",
        "on_barrier_release")},
    "repro.sim.coherence.Directory.on_recall":
        "memory walk: recall of an L3 victim held in S, which no roster "
        "run reaches; tests/test_memsys.py drives it",
    "repro.sim.cache.SetAssocCache.invalidate":
        "memory walk: the S-victim recall's invalidation, with on_recall",
    "repro.sim.branch.GsharePredictor.update": _BRANCH_MODEL,
}


def defined() -> dict[tuple[str, int], str]:
    """Every ``def`` in :data:`PACKAGES`: ``(file, first line) -> name``.

    A decorated function's code starts at its first decorator, so that
    is its first line here too.  A ``Protocol``'s methods declare a
    type and are never called, so they are not counted."""
    found = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found[str(path), first] = name
                visit(child, path, f"{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                if not any(getattr(base, "id", None) == "Protocol"
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


def scan(out: Path) -> set[tuple[str, int]]:
    """``(file, first line)`` of every code object the roster called.

    A run is a ``repro run`` command line where a flag builds its
    machine, so the report, the JSON result and the trace exporters read
    the counters as they do for a user; the machines no flag builds run
    through ``Machine`` and ``run_application``."""
    called = set()

    def hook(frame, event, arg):
        called.add(frame.f_code)

    sys.setprofile(hook)
    try:
        # Imported under the hook, so that a function a module runs as it
        # loads (the observer fan-out's forwarders) counts as executed.
        from repro.check import ThreadSanitizer
        from repro.cli import main as repro
        from repro.fdt.policies import POLICIES
        from repro.fdt.runner import run_application
        from repro.sim.config import MachineConfig
        from repro.sim.machine import Machine
        from repro.trace import TraceRecorder
        from repro.workloads import all_specs, get

        size = ["--scale", str(SCALE)]
        commands = []
        for spec in all_specs():
            commands += [
                ["run", spec.name, "--policy", "fdt", *size,
                 "--report", str(out / f"{spec.name}.json")],
                ["run", spec.name, "--policy", "static", "--threads", "32",
                 *size, "--json"]]
        commands.append(["run", "EP", "--smt", "2", "--bandwidth", "2", *size,
                         "--trace", str(out / "trace")])
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in commands:
                if repro(argv) != 0:
                    raise SystemExit(f"repro {' '.join(argv)} failed")

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
                run_application(get(workload).build(SCALE), POLICIES["fdt"](),
                                machine=machine)
    finally:
        sys.setprofile(None)
    return {(str(Path(file).resolve()), line) for file, line
            in {(code.co_filename, code.co_firstlineno) for code in called}}


def main() -> int:
    functions = defined()
    with tempfile.TemporaryDirectory() as out:
        called = scan(Path(out))
    unrun = {name for key, name in functions.items() if key not in called}
    problems = [f"no run executes {name}"
                for name in sorted(unrun - ALLOWED.keys())]
    problems += [f"allow-listed, but executed or gone: {name}"
                 for name in sorted(ALLOWED.keys() - unrun)]
    print(f"{len(functions) - len(unrun)} of {len(functions)} functions "
          f"executed; {len(unrun & ALLOWED.keys())} allow-listed")
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
