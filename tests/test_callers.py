"""Every public name under ``src/`` has a caller outside ``tests/``.

A name belongs in ``src/`` when the program reaches it: from
``repro.cli`` (every ``REGISTRARS`` command, the HTTP routes and the
``FIGURES`` entries hang off it) or from a file under ``benchmarks/``
or ``examples/``.  A name only tests reach is a test instrument and
lives in ``tests/``, or it goes — as the memory components' operations
did, which only the memory walk's specification (``tests/spec_memsys.py``)
drives and which are functions there.

Reach is worked out with :mod:`ast` alone.  Importing a module runs its
top-level statements; a package's PEP 562 ``_EXPORTS`` map binds names
as an import would, and its ``_ROSTER`` of submodule names (the
workloads :func:`repro.workloads.get` imports on demand) imports each.
A top-level ``def`` or ``class`` is reached when reached code refers to
it through those bindings (an ``__init__`` re-export or an ``__all__``
entry is a binding, not a use).  A method or
property of a reached class is reached when it is a dunder or when
reached code reads its name as an attribute anywhere (``x.name``), which
errs toward "used".
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: The only reasons a public name may stay in ``src/`` with test callers
#: alone: a workload's answer computed another way (or the accessor tests
#: compare it through), and a reset of a process global between tests.
CATEGORIES = ("workload oracle", "test-isolation hook")

#: ``qualified name -> "<category>: <why>"``.
ALLOWED = {
    "repro.workloads.convert.ConvertKernel.expected_output":
        "workload oracle: compared with `output`",
    "repro.workloads.ed.EdKernel.expected_distance":
        "workload oracle: compared with `distance()`",
    "repro.workloads.ed.EdKernel.distance":
        "workload oracle: the simulated answer `expected_distance` checks",
    "repro.workloads.ep.EpKernel.expected_tally":
        "workload oracle: compared with `tally`",
    "repro.workloads.gsearch.GSearchKernel.nodes_expanded":
        "workload oracle: the BFS schedule covers every node",
    "repro.workloads.gsearch.GSearchKernel.visited_count":
        "workload oracle: executed iterations mark every node",
    "repro.workloads.isort.ISortKernel.expected_sorted":
        "workload oracle: compared with `ranked_keys()`",
    "repro.workloads.isort.ISortKernel.ranked_keys":
        "workload oracle: the simulated answer `expected_sorted` checks",
    "repro.workloads.pagemine.PageMineKernel.expected_histogram":
        "workload oracle: compared with `histogram`",
    "repro.workloads.transpose.TransposeKernel.expected_result":
        "workload oracle: compared with `result`",
    "repro.obs.registry.reset_default_registry":
        "test-isolation hook: a fresh process-global metrics registry",
    "repro.obs.tracing.recorder":
        "test-isolation hook: where tests point the process-global span "
        "sink",
}

#: The console script and ``python -m repro``.
ENTRY_POINTS = ("repro.cli.main", "repro.__main__")

#: Files whose every line is caller code.
CALLER_FILES = (*sorted((ROOT / "benchmarks").rglob("*.py")),
                *sorted((ROOT / "examples").rglob("*.py")))

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


class Program:
    """Every module under ``src/``: its tree, its top-level ``def`` and
    ``class`` statements, what each top-level import binds (a name
    maps to the dotted path it stands for), and the submodules its
    ``_ROSTER`` names."""

    def __init__(self) -> None:
        self.trees: dict[str, ast.Module] = {}
        for path in sorted(SRC.rglob("*.py")):
            parts = path.relative_to(SRC).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            self.trees[".".join(parts)] = ast.parse(path.read_text())
        self.defs = {m: {s.name: s for s in tree.body
                         if isinstance(s, (*_FUNCTIONS, ast.ClassDef))}
                     for m, tree in self.trees.items()}
        self.bindings: dict[str, dict[str, str]] = {}
        self.rosters: dict[str, list[str]] = {}
        for module, tree in self.trees.items():
            bound = self.bindings[module] = {}
            for stmt in tree.body:
                targets = {getattr(t, "id", None)
                           for t in getattr(stmt, "targets", ())}
                if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                    bound.update(self.bind(stmt))
                elif "_EXPORTS" in targets:
                    bound.update((name, f"{module}.{sub}.{name}") for name, sub
                                 in ast.literal_eval(stmt.value).items())
                elif "_ROSTER" in targets:
                    self.rosters[module] = [f"{module}.{sub}" for sub
                                            in ast.literal_eval(stmt.value)]

    @staticmethod
    def bind(stmt: ast.Import | ast.ImportFrom) -> dict[str, str]:
        """The names an (absolute) import binds, and what each stands for."""
        if isinstance(stmt, ast.Import):
            return {a.asname or a.name.partition(".")[0]:
                    a.name if a.asname else a.name.partition(".")[0]
                    for a in stmt.names}
        return {a.asname or a.name: f"{stmt.module}.{a.name}" for a in stmt.names}

    def resolve(self, path: str, seen: frozenset = frozenset()) -> str | None:
        """The module, or the top-level def, a dotted path finally names,
        re-exports followed; None outside ``src/``."""
        if path in self.trees or path in seen:
            return path if path in self.trees else None
        module, _, name = path.rpartition(".")
        if module not in self.trees:
            return None
        if name in self.defs[module]:
            return path
        target = self.bindings[module].get(name)
        return None if target is None else self.resolve(target, seen | {path})


class Reach:
    """Caller code and everything it reaches, walked to a fixed point."""

    def __init__(self, program: Program) -> None:
        self.program = program
        #: reached modules, top-level defs and methods, by dotted path
        self.reached: set[str] = set()
        #: every attribute name reached code reads
        self.attributes: set[str] = set()
        self.pending: list[tuple[ast.AST, str | None, dict[str, str]]] = []

    def module(self, name: str) -> None:
        """Import ``name``: run each enclosing package's ``__init__`` and
        the module's top-level statements (decorators included), and
        import the modules its roster names."""
        parts = name.split(".")
        for prefix in (".".join(parts[:i]) for i in range(1, len(parts) + 1)):
            if prefix not in self.program.trees or prefix in self.reached:
                continue
            self.reached.add(prefix)
            for listed in self.program.rosters.get(prefix, ()):
                self.module(listed)
            for stmt in self.program.trees[prefix].body:
                if isinstance(stmt, _FUNCTIONS):
                    self.pending += [(d, prefix, {}) for d in stmt.decorator_list]
                elif not isinstance(stmt, ast.ClassDef):
                    self.pending.append((stmt, prefix, {}))

    def path(self, path: str | None) -> None:
        """Reach what a dotted path names, and the module it lives in."""
        target = None if path is None else self.program.resolve(path)
        if target is None or target in self.reached:
            return
        if target in self.program.trees:
            self.module(target)
            return
        module, _, name = target.rpartition(".")
        self.module(module)
        self.reached.add(target)
        self.pending.append((self.program.defs[module][name], module, {}))

    def dotted(self, node: ast.AST, module: str | None,
               local: dict[str, str]) -> str | None:
        """The dotted path a ``Name`` or ``Attribute`` chain spells."""
        if isinstance(node, ast.Attribute):
            base = self.dotted(node.value, module, local)
            return None if base is None else f"{base}.{node.attr}"
        if not isinstance(node, ast.Name):
            return None
        if node.id in local:
            return local[node.id]
        if module is None:
            return None
        if node.id in self.program.defs[module]:
            return f"{module}.{node.id}"
        return self.program.bindings[module].get(node.id)

    def walk(self, root: ast.AST, module: str | None,
             local: dict[str, str]) -> None:
        """Reach what ``root`` imports and names.  A class statement
        reaches its bases and class-level code; a method is walked once
        something reads its name."""
        if isinstance(root, ast.ClassDef):
            self.pending += [(node, module, local) for node in (
                *root.bases, *root.keywords, *root.decorator_list,
                *(s for s in root.body if not isinstance(s, _FUNCTIONS)))]
            return
        local = dict(local)
        for node in ast.walk(root):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = self.program.bind(node)
                local.update(bound)
                imported = ([a.name for a in node.names]
                            if isinstance(node, ast.Import) else [node.module])
                for name in (*imported, *bound.values()):
                    self.module(name)
        for node in ast.walk(root):
            if isinstance(node, (ast.Name, ast.Attribute)):
                self.path(self.dotted(node, module, local))
            if isinstance(node, ast.Attribute):
                self.attributes.add(node.attr)

    def called_methods(self) -> list[tuple[str, ast.AST, str]]:
        """Unreached methods of reached classes that are now called."""
        found = []
        for module, defs in self.program.defs.items():
            for name, cls in defs.items():
                qualname = f"{module}.{name}"
                if not isinstance(cls, ast.ClassDef) or qualname not in self.reached:
                    continue
                found += [(f"{qualname}.{m.name}", m, module) for m in cls.body
                          if isinstance(m, _FUNCTIONS)
                          and f"{qualname}.{m.name}" not in self.reached
                          and (m.name in self.attributes
                               or m.name.startswith("__"))]
        return found

    def run(self) -> None:
        for entry in ENTRY_POINTS:
            self.path(entry)
        for file in CALLER_FILES:
            self.walk(ast.parse(file.read_text()), None, {})
        while self.pending:
            while self.pending:
                self.walk(*self.pending.pop())
            for qualname, method, module in self.called_methods():
                self.reached.add(qualname)
                self.pending.append((method, module, {}))


@functools.cache
def uncalled() -> frozenset[str]:
    """Public names under ``src/`` no caller code reaches; an unreached
    class is named alone, not with each of its methods."""
    program = Program()
    reach = Reach(program)
    reach.run()
    missing = set()
    for module, defs in program.defs.items():
        for name, node in defs.items():
            qualname = f"{module}.{name}"
            if name.startswith("_"):
                continue
            if qualname not in reach.reached:
                missing.add(qualname)
            elif isinstance(node, ast.ClassDef):
                missing.update(f"{qualname}.{m.name}" for m in node.body
                               if isinstance(m, _FUNCTIONS)
                               and not m.name.startswith("_")
                               and f"{qualname}.{m.name}" not in reach.reached)
    return frozenset(missing)


def test_every_public_name_under_src_has_a_caller_outside_tests():
    missing = sorted(uncalled() - ALLOWED.keys())
    assert not missing, (
        "reached only from tests/ (or from nothing): move each to tests/ "
        "or delete it, or allow-list it with a reason:\n  "
        + "\n  ".join(missing))


def test_every_allow_list_entry_gives_a_reason():
    for name, reason in ALLOWED.items():
        category, _, why = reason.partition(":")
        assert category in CATEGORIES and why.strip(), (
            f"{name}: a reason reads '<category>: <why>' with a category "
            f"from {CATEGORIES}, got {reason!r}")


def test_every_allow_list_entry_is_still_uncalled():
    stale = sorted(ALLOWED.keys() - uncalled())
    assert not stale, f"allow-listed, but called or gone: {stale}"
