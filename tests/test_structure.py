"""Structural rules of the code, one table row each.

A rule here is a property no behavioural test sees, such as how a
kernel hands out its ops or a text that must not come back.  Each row
gives the rule id, the reason (what a failure tells whoever broke it),
the subjects it covers and a predicate on one subject; the test runs
every (rule, subject) pair.  A text rule's subjects are paths from the
repository root, each a file or a directory searched recursively (as
``grep -r`` would), and its predicate is :func:`absent`; a rule that
counts the files a text is spelled in takes :class:`Spelling` subjects
and :func:`spelled`, a line cap takes :class:`Lines` and
:func:`within_cap`, and the declared-imports rule takes :class:`Imports`
and :func:`imports_declared`.  A new rule is a new row.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import functools
import inspect
import io
import re
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import pytest

import repro.sim.memsys
from repro.cli import build_parser
from repro.sim.bus import OffChipBus
from repro.sim.cache import SetAssocCache
from repro.sim.coherence import Directory
from repro.sim.dram import Dram
from repro.sim.l3 import L3Bank, SharedL3
from repro.sim.machine import Machine
from repro.sim.memsys import MemorySystem
from repro.workloads.bt import BtKernel
from repro.workloads.ep import EpKernel
from repro.workloads.isort import ISortKernel
from repro.workloads.mg import MgKernel
from repro.workloads.synthetic import SyntheticKernel
from tests.roster import LEAVES, ROSTER, Row, Serve

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Rule:
    id: str
    reason: str
    subjects: tuple[Any, ...]
    holds: Callable[[Any], bool]


def _files(path: Path, glob: str = "*") -> list[Path]:
    """``path`` itself, or the files under it that match ``glob``."""
    path = ROOT / path
    return [path] if path.is_file() else sorted(
        f for f in path.rglob(glob)
        if f.is_file() and "__pycache__" not in f.parts)


def absent(pattern: str) -> Callable[[Path], bool]:
    """The predicate "no line of any file under the path matches
    ``pattern``" (``^`` and ``$`` match at every line)."""
    regex = re.compile(pattern, re.MULTILINE)

    def holds(path: Path) -> bool:
        return not any(regex.search(f.read_text(errors="replace"))
                       for f in _files(path))
    return holds


@dataclass(frozen=True)
class Spelling:
    """``pattern`` is spelled in a number of files in ``files``: of the
    files under ``root`` that match ``glob``, as ``grep -rlE`` piped to
    ``wc -l``."""
    name: str
    pattern: str
    files: range
    root: Path = Path("src")
    glob: str = "*.py"


def spelled(subject: Spelling) -> bool:
    regex = re.compile(subject.pattern, re.MULTILINE)
    return sum(bool(regex.search(f.read_text(errors="replace")))
               for f in _files(subject.root, subject.glob)) in subject.files


@dataclass(frozen=True)
class Lines:
    """The ``*.py`` files under ``roots`` hold at most ``cap`` lines, as
    ``cat | wc -l``."""
    name: str
    roots: tuple[Path, ...]
    cap: int


def within_cap(subject: Lines) -> bool:
    return sum(f.read_bytes().count(b"\n") for root in subject.roots
               for f in _files(root, "*.py")) <= subject.cap


@dataclass(frozen=True)
class Imports:
    """Every module imported under ``root`` that is neither the standard
    library's nor this repository's is a distribution named in one of
    ``pyproject.toml``'s ``lists`` (``dependencies`` or an extra)."""
    root: Path
    lists: tuple[str, ...]


def _declared(name: str) -> set[str]:
    """The distributions of one list in ``pyproject.toml``, spelled as
    modules (read without ``tomllib``, which Python 3.10 lacks)."""
    text = (ROOT / "pyproject.toml").read_text()
    body = re.search(rf"^{name} = \[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    return {re.match(r"[\w.-]+", item).group().lower().replace("-", "_")
            for item in re.findall(r'"([^"]+)"', body.group(1))}


def _imported(root: Path) -> set[str]:
    """Top-level names of every absolute import in the files under
    ``root``, lazy ones included."""
    names = set()
    for f in _files(root, "*.py"):
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def imports_declared(subject: Imports) -> bool:
    own = {"repro", "tests", "benchmarks", "examples"} | {
        f.stem for root in ("tests", "benchmarks", "examples")
        for f in _files(Path(root), "*.py")}
    declared = set().union(*map(_declared, subject.lists))
    return _imported(subject.root) - set(sys.stdlib_module_names) - own \
        <= declared


def no_core_built(init: Callable) -> bool:
    """``init`` constructs no core and no private cache."""
    return not re.search(r"\b(Core|SetAssocCache)\(", inspect.getsource(init))


#: The memory components' operations that only the specification runs:
#: functions over the components' state in ``tests/spec_memsys.py``.
#: (``Dram.bank_of`` stays a method: the port calls it.)
SPEC_ONLY = frozenset({
    "lookup", "peek", "insert", "update", "clear", "line_of",
    "__contains__", "__repr__", "request_phase", "data_phase", "access",
    "row_of", "start_access", "bank_of", "mark_dirty", "entry", "index"})


def state_only(subject: Any) -> bool:
    kept = {"bank_of"} if subject is Dram else set()
    return not (SPEC_ONLY - kept) & vars(subject).keys()


#: A command the docs spell: ``repro`` after ``python -m``, a backtick
#: or a line start, and its words up to a comment, a closing backtick or
#: the end of the line (a trailing backslash continues it).
_COMMAND = re.compile(r"(?:python3? -m |`|^)repro((?: +[^\s`#]+)*)", re.MULTILINE)

#: A repository path the docs name.
_REPO_PATH = re.compile(r"(?<![\w./-])(?:src|tests|benchmarks)/[\w./*-]*")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _unparsed(words: list[str]) -> list[str]:
    """The words of one ``repro`` command that the argparse tree does not
    take: an unknown command, or a ``--flag`` its (sub)command lacks.
    ``a|b`` stands for each of ``a`` and ``b``."""
    parsers = [_parser()]
    while words and not words[0].startswith("-"):
        subs = [action for p in parsers for action in p._actions
                if isinstance(action, argparse._SubParsersAction)]
        if not subs:
            break
        names = words[0].split("|")
        if any(name not in sub.choices for sub in subs for name in names):
            if parsers[0] is _parser():
                return words[:1]  # not a command at all
            break
        parsers = [sub.choices[name] for sub in subs for name in names]
        words = words[1:]
    flags = {match.group() for word in words
             if (match := re.match(r"--[\w-]+", word))}
    return sorted(flag for flag in flags for p in parsers
                  if flag not in p._option_string_actions)


def commands_parse(path: Path) -> bool:
    """Every ``repro <command> --flag`` spelled under ``path`` parses."""
    bad = [(f.name, words, unparsed)
           for f in _files(path, "*.md")
           for match in _COMMAND.finditer(
               re.sub(r"\\\n\s*", " ", f.read_text()))
           if (words := match.group(1).split())
           and (unparsed := _unparsed(words))]
    assert not bad, bad
    return True


def paths_exist(path: Path) -> bool:
    """Every ``src/``, ``tests/`` or ``benchmarks/`` path named in the
    Markdown and Python files under ``path`` exists (a ``*`` pattern
    matches at least one file)."""
    names = {match.group().rstrip("./") for f in _files(path)
             if f.suffix in (".md", ".py")
             for match in _REPO_PATH.finditer(f.read_text())}
    missing = sorted(name for name in names
                     if not (any(ROOT.glob(name)) if "*" in name
                             else (ROOT / name).exists()))
    assert not missing, missing
    return True


def layout_matches(path: Path) -> bool:
    """The ``src/repro/`` block of the layout under ``path`` names
    exactly the package directories under src/repro."""
    block = re.search(r"^src/repro/\n((?:  .*\n)+)", (ROOT / path).read_text(),
                      re.MULTILINE)
    assert block, "no src/repro/ block"
    named = set(re.findall(r"^  (\w+)/", block.group(1), re.MULTILINE))
    packages = {init.parent.name
                for init in (ROOT / "src/repro").glob("*/__init__.py")}
    assert named == packages, (sorted(named - packages),
                               sorted(packages - named))
    return True


def _leaves(parser: argparse.ArgumentParser, path: tuple = ()) -> list[str]:
    """Every command of the argparse tree, as its words joined."""
    subs = [action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)]
    if not subs:
        return [" ".join(path)]
    return [leaf for name, child in subs[0].choices.items()
            for leaf in _leaves(child, path + (name,))]


def help_for_every_leaf(leaves: tuple[str, ...]) -> bool:
    """The roster asks every leaf of the argparse tree for ``--help``."""
    assert sorted(leaves) == sorted(_leaves(_parser())), _leaves(_parser())
    return True


#: What a placeholder of a roster line stands for when it is parsed.
_PLACEHOLDERS = {"{out}": "out", "{port}": "8080", "{key}": "0123abcd"}


def row_parses(row: Row | Serve) -> bool:
    """A roster row's ``repro`` line parses with build_parser() (a
    ``--help`` line exits 0), and every repository file it names exists."""
    words = [functools.reduce(lambda w, p: w.replace(*p),
                              _PLACEHOLDERS.items(), word)
             for word in (row.argv if isinstance(row, Row)
                          else shlex.split(row.line))]
    if words[0] == "repro":
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                _parser().parse_args(words[1:])
        except SystemExit as exc:
            assert exc.code == 0, err.getvalue()
    missing = [name for name in getattr(row, "files", ())
               if not (ROOT / name).exists()]
    assert not missing, missing
    return True


RULES = (
    Rule("op-replay",
         "a kernel whose ops repeat returns its OpTable's tuple from "
         "team_iteration; a generator would rebuild every op on every call",
         (BtKernel, MgKernel, ISortKernel, EpKernel, SyntheticKernel),
         lambda kernel: not inspect.isgeneratorfunction(kernel.team_iteration)),
    Rule("no-vectorize",
         "an element-wise Python call goes through np.frompyfunc, not "
         "np.vectorize",
         (Path("src/repro/workloads"),), absent(r"np\.vectorize")),
    Rule("gsearch-row-sort",
         "GSearch's graph is one draw and a row-wise sort: no np.unique "
         "per node",
         (Path("src/repro/workloads/gsearch.py"),), absent(re.escape("np.unique("))),
    Rule("ep-lcg-doubling",
         "EP's stream is filled by doubling: no loop stepping the LCG one "
         "number at a time",
         (Path("src/repro/workloads/ep.py"),),
         absent(re.escape("for i in range(count)"))),
    Rule("lazy-sets",
         "every cache allocates a set at its first fill: there is no eager "
         "variant to select",
         (Path("src"),), absent(r"lazy_sets")),
    Rule("one-memory-walk",
         "one memory walk serves every valid machine, no environment "
         "variable picks a code path, and its specification lives in "
         "tests/spec_memsys.py",
         (Path("src/repro/sim"),),
         absent(r"REPRO_SLOW_PATHS|slow_paths|reference_port")),
    Rule("set-index-mask",
         "a set index is a mask: a set count that is not a power of two "
         "is refused, not served by a modulo",
         (Path("src/repro/sim/cache.py"),), absent(re.escape("% self.num_sets"))),
    Rule("directory-values",
         "a directory entry is a (core, dirty) tuple or a sharer set, so a "
         "bandwidth-limited miss allocates nothing",
         (Path("src"),), absent(r"DirectoryEntry|_NO_SHARERS")),
    Rule("bus-no-last-end",
         "the bus keeps no last-end clock that nothing reads",
         (Path("src/repro/sim/bus.py"),), absent(r"_last_end")),
    Rule("sim-layering",
         "the simulated machine knows nothing of what observes or hosts it: "
         "a plug-in comes in through Machine(config, observer=...)",
         (Path("src/repro/sim"), Path("src/repro/runtime"),
          Path("src/repro/isa")),
         absent(r"^\s*(from|import) repro\.(check|trace|jobs|serve|obs)")),
    Rule("no-collector",
         "a finished machine is freed by refcount (Machine.close); the "
         "footprint is never bought with a collector call",
         (Path("src"),), absent(r"gc\.(collect|freeze|set_threshold|disable)")),
    Rule("one-drain",
         "the event queue has one drain per observer shape: no step(), "
         "schedule_in(), _clamp() or run(until=)",
         (Path("src/repro/sim/engine.py"),),
         absent(r"def (step|schedule_in|_clamp)\(|def run\(self, ")),
    Rule("one-step",
         "the core's step serves every op kind and wakes a lock handoff or "
         "barrier release straight onto the heap: no out-of-line dispatch "
         "or wake chain",
         (Path("src/repro/sim"),),
         absent(r"def (_dispatch|granted|wake_agent|team_size_of|_begin_spin"
                r"|_resume_with_value)\b")),
    Rule("state-only-components",
         "a memory component is state and counters, walked by one port: an "
         "operation only the specification runs is a function in "
         "tests/spec_memsys.py, and memsys.py holds no second walk "
         "(no `access`)",
         (SetAssocCache, OffChipBus, Dram, L3Bank, SharedL3, Directory,
          MemorySystem, repro.sim.memsys),
         state_only),
    Rule("lazy-cores",
         "a machine builds a core, with its contexts, L1 and L2, "
         "when the first thread is placed on it: construction builds the "
         "shared parts only",
         (Machine.__init__, MemorySystem.__init__), no_core_built),
    Rule("one-spelling",
         "Eq. 7 is applied in one file (fdt/estimators.estimate_from), an "
         "FDT decision is one record (fdt/estimators.Decision), and no "
         "logging choice travels through the environment",
         (Spelling("eq7", re.escape("min(p_cs, p_bw"), range(1, 2)),
          Spelling("one-decision-no-log-env",
                   r"class FdtDecisionRecord|def combined_thread_choice"
                   r"|REPRO_LOG_", range(0, 1))),
         spelled),
    Rule("check-takes-no-config",
         "repro.check takes no configuration: a verdict is a function of "
         "the program and the machine (two named constants, and filters "
         "on the report)",
         (Path("src/repro/check"),), absent(r"class \w*Config\b")),
    Rule("warm-hit-key",
         "a warm hit recomputes nothing: JobSpec.key hashes each config "
         "once, with no whole-payload dump",
         (Path("src/repro/jobs/spec.py"),), absent(re.escape("json.dumps(payload"))),
    Rule("warm-hit-head",
         "a warm hit recomputes nothing: the HTTP head is one readuntil, "
         "not read line by line",
         (Path("src/repro/serve/http.py"),),
         absent(re.escape("await reader.readline()"))),
    Rule("warm-hit-span",
         "a warm hit recomputes nothing: a span is a slotted class, not a "
         "generator context manager",
         (Path("src/repro/obs/tracing.py"),),
         absent(r"@contextmanager\ndef span\(")),
    Rule("no-span-store",
         "a serving process keeps nothing per span: a finished span goes "
         "to the sink or nowhere, with no in-process ring",
         (Path("src/repro/obs/tracing.py"),),
         absent(r"deque\(|MAX_RECORDED_SPANS")),
    Rule("test-only-options",
         "every option has a caller outside tests: a value only tests set "
         "is a module constant they patch",
         (Path("src"),),
         absent(r"TraceConfig|retry_budget|backoff_base|backoff_cap"
                r"|bind_retries|startup_timeout|history_bits|bank_occupancy"
                r"|exemplar|max_batch|batch_window")),
    Rule("one-address-map",
         "the line-address split is derived in repro/sim/addrmap.py alone: "
         "the offset width, every set and bank mask and the DRAM granule "
         "are fields of its AddressMap, which every reader takes",
         (Spelling("split-derivations",
                   r"bit_length\(\)\s*-\s*1|\b(l3|dram)_banks\s*-\s*1"
                   r"|sets\s*-\s*1|assoc\s*-\s*1|\.dram_granule_lines"
                   r"|dram_row_bytes\s*//", range(1, 2)),),
         spelled),
    Rule("no-cli-import",
         "a package __init__ does not import its cli module: importing a "
         "package registers no command",
         (Spelling("package-init", r"^\s*(from|import) .*\bcli\b", range(0, 1),
                   Path("src/repro"), "__init__.py"),),
         spelled),
    Rule("cli-mounts-own",
         "repro/cli.py mounts no other subsystem's command: check, serve, "
         "loadgen, chaos and obs register from their own packages",
         (Path("src/repro/cli.py"),),
         absent(r'add_parser\(\s*"(check|serve|loadgen|chaos|obs)"')),
    Rule("docs-commands-parse",
         "every `repro <command> --flag` that the docs and the verify "
         "skill spell parses with build_parser()",
         (Path("README.md"), Path("docs"), Path("DESIGN.md"),
          Path("EXPERIMENTS.md"), Path(".claude/skills/verify/SKILL.md")),
         commands_parse),
    Rule("docs-paths-exist",
         "every src/, tests/ or benchmarks/ path that the docs, the verify "
         "skill or a docstring under src/repro name exists",
         (Path("README.md"), Path("docs"), Path("DESIGN.md"),
          Path("EXPERIMENTS.md"), Path(".claude/skills/verify/SKILL.md"),
          Path("src/repro")), paths_exist),
    Rule("design-layout",
         "DESIGN.md's repository layout names every package under "
         "src/repro and no other",
         (Path("DESIGN.md"),), layout_matches),
    Rule("roster-commands-parse",
         "every command line of tests/roster.py parses with build_parser() "
         "and names only files that exist: a renamed flag fails here, not "
         "only when the roster runs",
         tuple(entry for item in ROSTER
               for entry in ((item, *item.rows) if isinstance(item, Serve)
                             else (item,))),
         row_parses),
    Rule("roster-help-leaves",
         "tests/roster.py asks every subcommand for --help: its LEAVES are "
         "the argparse tree's leaves",
         (LEAVES,), help_for_every_leaf),
    Rule("no-branch-model",
         "no Table 2 kernel branches, so the machine models no branch "
         "predictor or pipeline depth: no Branch op, gshare table, "
         "misprediction penalty or branch lint",
         (Path("src"),),
         absent(r"\bBranch\b|gshare|Gshare|branch_misprediction|pipeline_depth"
                r"|branch_accuracy|MIN_BRANCH")),
    Rule("sim-line-cap",
         "the simulator and the workloads stay within their line budget: "
         "a new mechanism there pays for itself with a deletion",
         (Lines("sim+workloads",
                (Path("src/repro/sim"), Path("src/repro/workloads")), 4657),),
         within_cap),
    Rule("declared-imports",
         "installing the package installs what it imports: every module "
         "a file imports is the standard library's, this repository's, or "
         "declared in pyproject.toml (dependencies for src/ and examples/, "
         "those or the test extra for tests/ and benchmarks/)",
         (Imports(Path("src"), ("dependencies",)),
          Imports(Path("examples"), ("dependencies",)),
          Imports(Path("tests"), ("dependencies", "test")),
          Imports(Path("benchmarks"), ("dependencies", "test"))),
         imports_declared),
    Rule("obs-one-of-each",
         "repro.obs keeps one of each: one counter type (a label is an "
         "argument), one JSON-lines file behind the run registry and the "
         "span sink, one way to list runs (list --limit), and the degraded "
         "counter spelled in one file",
         (Spelling("one-mechanism",
                   r"class LabeledCounter|def labeled_counter|def kv\(|def tail\(",
                   range(0, 1), Path("src/repro/obs"), "*"),
          Spelling("degraded-counter", "repro_obs_degraded_total",
                   range(0, 2))),
         spelled),
)


def _name(subject: Any) -> str:
    if isinstance(subject, Path):
        return subject.as_posix()
    if isinstance(subject, (Row, Serve)):
        return subject.line
    if subject is LEAVES:
        return "LEAVES"
    if isinstance(subject, (Spelling, Lines)):
        return subject.name
    if isinstance(subject, Imports):
        return subject.root.as_posix()
    return getattr(subject, "__qualname__", subject.__name__)


@pytest.mark.parametrize(("rule", "subject"), [
    pytest.param(rule, subject, id=f"{rule.id}-{_name(subject)}")
    for rule in RULES for subject in rule.subjects
])
def test_rule(rule: Rule, subject: Any) -> None:
    assert rule.holds(subject), f"{rule.id}: {_name(subject)}: {rule.reason}"
