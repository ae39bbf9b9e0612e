"""Every shipped command line in one table, with what each must print.

A :class:`Row` is one command line, the exit status it must end with and
a predicate on what it printed and wrote (a function that asserts, so a
failure says what it saw).  ``python tests/scan_executed.py`` runs the
whole table, under a trace hook, and CI runs that script for every
shipped command; a new shipped command gets its row here.

A row's first word says how it runs:

* ``repro`` — :func:`repro.cli.main`, in this process;
* ``GET`` or ``POST`` — one HTTP request (``POST`` takes the rest of
  the line as its JSON body) to the server of the :class:`Serve` group
  the row sits in; its status is the HTTP status, 200 unless the row
  says otherwise;
* anything else — a child process, from the repository root (``python``
  is this interpreter): a command that measures its own process, or a
  test run.

In a line, ``{out}`` is the scratch directory of the run (every file a
row writes goes there), ``{port}`` the port of the group's server and
``{key}`` the ``key`` of the last HTTP reply that carried one.  A line
that ends in ``> FILE`` saves its standard output as ``{out}/FILE``.

A :class:`Serve` group runs its ``repro serve`` line in this process's
main thread and its rows on another thread; then it sends the process
SIGTERM, and the server must drain and exit 0 before the group's own
predicate reads the server's standard error and the files it wrote.  A
``repro`` row inside a group sets the process's logging as its own
process would, so the server logs elsewhere from then on.

Every row runs with ``REPRO_CACHE_DIR`` under ``{out}`` unless its
``env`` sets it, so each run starts cold and leaves no cache behind, and
with ``REPRO_OBS_SPANS`` set to ``{out}/spans.jsonl``, where this
process's finished spans go.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

ROOT = Path(__file__).resolve().parents[1]

#: Seconds a child process, an HTTP request or a server's start may take.
TIMEOUT = 600


@dataclass(frozen=True)
class Output:
    """What one row left: its standard output and error, and the run's
    scratch directory."""

    stdout: str
    stderr: str
    out: Path

    def json(self, name: str) -> Any:
        return json.loads((self.out / name).read_text())


def _nothing(run: Output) -> None:
    """The predicate of a row whose exit status says it all."""


@dataclass(frozen=True)
class Prints:
    """The predicate "standard output is the committed file ``path``"."""

    path: str

    def __call__(self, run: Output) -> None:
        expected = (ROOT / self.path).read_text()
        assert run.stdout == expected, "".join(difflib.unified_diff(
            expected.splitlines(True), run.stdout.splitlines(True),
            self.path, "stdout"))


@dataclass(frozen=True)
class Unchanged:
    """The predicate "the committed file ``path``, which the row
    rewrites, is still as committed"."""

    path: str

    def __call__(self, run: Output) -> None:
        diff = subprocess.run(["git", "diff", "--exit-code", "--", self.path],
                              cwd=ROOT, capture_output=True, text=True)
        assert diff.returncode == 0, diff.stdout or diff.stderr


@dataclass(frozen=True)
class Row:
    line: str
    check: Callable[[Output], object] = _nothing
    #: Exit status; for a request, the HTTP status (None: 0 or 200).
    code: int | None = None
    env: Mapping[str, str] = field(default_factory=dict)

    @property
    def request(self) -> bool:
        return self.line.split(None, 1)[0] in ("GET", "POST")

    @property
    def argv(self) -> list[str]:
        """The command's words, without a trailing ``> FILE``."""
        command = self.line.rpartition(" > ")[0] or self.line
        return command.split(None, 2) if self.request else shlex.split(command)

    @property
    def saves(self) -> str | None:
        return self.line.rpartition(" > ")[2] if " > " in self.line else None

    @property
    def files(self) -> list[str]:
        """The repository files the row names: in its command line, and
        as the ``path`` of its predicate."""
        named = [w for w in self.argv[1:] if "/" in w and w[0] not in "{/-"
                 and not self.request]
        path = getattr(self.check, "path", None)
        return named + ([path] if path else [])


@dataclass(frozen=True)
class Serve:
    line: str
    rows: tuple[Row, ...]
    check: Callable[[Output], object] = _nothing
    env: Mapping[str, str] = field(default_factory=dict)


# -- predicates: what CI asserted of each smoke command ------------------------

def _last_line_correct(run: Output) -> None:
    doc = json.loads(run.stdout.splitlines()[-1])
    assert doc["correct"] is True and doc["failed"] == 0, doc


def _chaos_example(run: Output) -> None:
    doc = run.json("chaos-report.json")
    assert doc["passed"] is True, doc
    for report in doc["reports"]:
        bad = [inv for inv in report["invariants"]
               if not inv["ok"]]
        assert not bad, (report["mode"], bad)
        assert report["injected"] > 0, report  # plan really fired


def _chaos_breaker(run: Output) -> None:
    doc = run.json("chaos-breaker.json")
    (report,) = doc["reports"]
    assert doc["passed"] is True, report["invariants"]
    assert report["injected"] == 3, report


def _chaos_pool(run: Output) -> None:
    # Decided in the parent, so it fires once, is counted, and every
    # spec recovers.
    doc = run.json("chaos-pool-report.json")
    (report,) = doc["reports"]
    assert doc["passed"] is True, report["invariants"]
    assert report["injected"] > 0, report
    assert "failed" not in report["statuses"], report["statuses"]


def _batch_cold(run: Output) -> None:
    cold = run.json("cold.json")["counts"]
    assert cold == {"total": 2, "hits": 0, "computed": 2,
                    "failed": 0, "timeouts": 0}, cold


def _batch_warm(run: Output) -> None:
    warm = run.json("warm.json")["counts"]
    assert warm == {"total": 2, "hits": 2, "computed": 0,
                    "failed": 0, "timeouts": 0}, warm


def _timed_out(run: Output) -> None:
    assert "2 job(s) failed (2 timed out)" in run.stderr, run.stderr


def _loadgen(run: Output) -> None:
    report = json.loads(run.stdout)
    codes = report["status_codes"]
    assert report["errors"] == 0, report
    assert not any(c.startswith("5") for c in codes), codes
    warm = (report["outcomes"].get("hit", 0)
            + report["outcomes"].get("coalesced", 0))
    assert warm > 0, report  # repeats must be served warm


def _serve_manifest(run: Output) -> None:
    manifest = run.json("serve-manifest.json")
    assert manifest["counts"]["computed"] >= 1, manifest


def _obs_run(run: Output) -> None:
    doc = json.loads(run.stdout)
    assert doc["status"] == "computed", doc


def _obs_logs(run: Output) -> None:
    doc = run.json("obs-run.json")
    # Structured JSON log lines carry the request's trace ID.
    logged = [json.loads(line)
              for line in run.stderr.splitlines()
              if line.startswith("{")]
    requests = [d for d in logged if d.get("msg") == "request"]
    assert any(d.get("key") == doc["key"] for d in requests), logged
    assert all(d.get("trace_id") for d in requests), requests


def _obs_metrics(run: Output) -> None:
    # /metrics exposes the serve panel plus the shared registry.
    metrics = run.stdout
    for name in ("repro_serve_requests_total",
                 "repro_jobs_cache_total",
                 "repro_jobs_resolutions_total",
                 "repro_serve_batch_seconds"):
        assert name in metrics, name


def _obs_report(run: Output) -> None:
    # The run registry recorded the resolution.
    report = json.loads(run.stdout)
    assert report["rows"] >= 1, report
    assert report["by_status"].get("computed", 0) >= 1, report


def _trace(run: Output) -> None:
    doc = run.json(".trace-smoke/trace.json")
    assert doc["traceEvents"], "empty Perfetto trace"
    for name in ("counters.csv", "decisions.json", "summary.txt"):
        assert (run.out / ".trace-smoke" / name).read_text(), name
    assert "cycles by state" in run.stdout, run.stdout


def _trace_counts(run: Output) -> None:
    trace = json.loads(run.stdout)["trace"]
    assert trace["spans"] and trace["samples"] and trace["decisions"], trace
    assert (trace["dropped_spans"], trace["dropped_samples"]) == (0, 0)
    assert set(trace["artifacts"]) == {
        "perfetto", "counters", "decisions", "summary"}


def _batch_json(run: Output) -> None:
    batch = json.loads(run.stdout)
    assert batch["counts"]["computed"] == len(batch["jobs"]) == 1, batch


def _json_and_report(run: Output) -> None:
    """``--json`` changes only what is printed: the report is still
    written, and standard output is one JSON document."""
    assert json.loads(run.stdout)["cycles"] > 0
    assert run.json("json-report.json")["cycles"] > 0


# -- the table -----------------------------------------------------------------

#: Every leaf of the argparse tree (``test_structure.py`` checks the list).
LEAVES = ("list", "machine", "run", "sweep", "figure", "batch", "check",
          "serve", "loadgen", "chaos", "obs list", "obs show", "obs report")

#: Table 2, in its order.
WORKLOADS = ("PageMine", "ISort", "GSearch", "EP", "ED", "convert",
             "Transpose", "MTwister", "BT", "MG", "BScholes", "SConv")

#: The scale of every ``repro run`` row: the smallest that still executes
#: every function a full-scale run does.
SCALE = 0.01

#: The figures printed byte-for-byte as committed: the analytic entries,
#: the two tables, and one simulating figure.
FIGURES = {"table1": "table1_machine", "table2": "table2_workloads",
           "fig6": "fig06_cs_example", "fig11": "fig11_bw_example",
           "fig16": "fig16_17_min_proof", "fig13": "fig13_bandwidth"}

_OBS = {"REPRO_CACHE_DIR": "{out}/obs-cache"}

ROSTER: tuple[Row | Serve, ...] = (
    # Every subcommand answers --help.
    *(Row(f"repro {leaf} --help") for leaf in LEAVES),
    Row("repro list"),
    Row("repro machine"),
    *(Row(f"repro figure {name} --no-cache",
          Prints(f"benchmarks/results/{committed}.txt"))
      for name, committed in FIGURES.items()),
    # The other nine, Fig. 15 first: its sweeps fill the cache most of the
    # rest read.  Their simulations run in two worker processes.
    *(Row(f"repro figure {name} --jobs 2") for name in (
        "fig15", "fig2", "fig4", "fig8", "fig9", "fig12", "fig14",
        "crossover", "smt")),
    # Every contender is built from its registry name; the table the four
    # of them print on three workloads is committed.
    Row("python -m pytest benchmarks/test_policy_shootout.py -q",
        Unchanged("benchmarks/results/policy_shootout.txt")),
    # Every Table 2 workload under fdt and under a 32-thread static team,
    # with the machine report, the JSON result and the trace exporters
    # reading the counters as they do for a user.
    *(row for name in WORKLOADS for row in (
        Row(f"repro run {name} --policy fdt --scale {SCALE} "
            f"--report {{out}}/{name}.json"),
        Row(f"repro run {name} --policy static --threads 32 "
            f"--scale {SCALE} --json"))),
    Row(f"repro run EP --smt 2 --bandwidth 2 --scale {SCALE} "
        "--trace {out}/trace"),
    # The two section 9 refinements, and a static team the machine cannot
    # hold, refused as /v1/run refuses it.
    Row(f"repro run PageMine --policy sat-two-phase --scale {SCALE}"),
    Row(f"repro run ED --policy bat-calibrated-4 --scale {SCALE}"),
    Row("repro run EP --policy static --threads 99", code=2),
    Row(f"repro run EP --scale {SCALE} --json "
        "--report {out}/json-report.json", _json_and_report),
    Row("repro sweep EP --threads 1,2,4 --scale 0.1"),
    # The 24 pinned Fig. 14 jobs at full scale, bit-exact, and the serving
    # paths: every serve-hit reply is compared with the result the server
    # returned when the cache was filled; serve-miss re-runs a sample.
    *(Row(f"python benchmarks/perf/run.py --workload {workload} "
          "--seed 1 --seconds 1 --trace 0", _last_line_correct)
      for workload in ("fig14-cs", "fig14-bw", "fig14-scalable",
                       "serve-hit", "serve-miss")),
    # The example plan, zero violations; then the pool leg: one
    # bounded worker abort.
    Row("repro chaos --plan examples/chaos_plan.json --mode both "
        "--workloads PageMine --scale 0.05 --report {out}/chaos-report.json",
        _chaos_example),
    Row("repro chaos --plan tests/chaos_pool_plan.json --mode batch "
        "--jobs 2 --workloads PageMine,ISort --scale 0.05 "
        "--report {out}/chaos-pool-report.json", _chaos_pool),
    # Three forced batch timeouts trip the server's breaker, which sheds,
    # probes and closes again; and the built-in plan.
    Row("repro chaos --plan tests/chaos_breaker_plan.json --mode serve "
        "--workloads PageMine --scale 0.05 --report {out}/chaos-breaker.json",
        _chaos_breaker),
    Row("repro chaos --mode batch --workloads PageMine --scale 0.05"),
    Row("repro chaos --list-sites"),
    Row("repro chaos --attempts 0", code=2),
    # Every mode refuses both counts, the one it does not read too.
    Row("repro chaos --mode batch --attempts 0 --workloads EP --scale 0.02",
        code=2),
    Row("repro chaos --mode serve --jobs 0 --workloads EP --scale 0.02",
        code=2),
    Row("repro chaos --workloads ,", code=2),
    # A client timeout that no reply can meet is refused before sending.
    Row("repro loadgen --synthetic --request-timeout 0", code=2),
    # A cold batch, then the same batch from the warm cache.
    Row("repro batch EP --threads 1,2 --policies static --scale 0.1 "
        "--jobs 2 --cache-dir {out}/batch-cache --manifest {out}/cold.json",
        _batch_cold),
    Row("repro batch EP --threads 1,2 --policies static --scale 0.1 "
        "--jobs 2 --cache-dir {out}/batch-cache --manifest {out}/warm.json",
        _batch_warm),
    # The batch's JSON rendering at two team sizes; a per-job timeout far
    # below a job's seconds fails the batch with exit 2.
    *(Row(f"repro batch PageMine --threads {threads} --scale 0.05 --json",
          _batch_json) for threads in (2, 4)),
    Row("repro batch MTwister --threads 1,2 --scale 0.5 --jobs 2 "
        "--timeout 0.01 --no-cache", _timed_out, code=2),
    # A loadgen burst against a live server.
    Serve("repro serve --port 0 --manifest {out}/serve-manifest.json", (
        Row("repro loadgen --synthetic --cs-fraction 0.2 --bus-lines 2 "
            "--iterations 16 --policy static --threads 4 --port {port} "
            "--rps 40 --duration 1 --json", _loadgen),
    ), _serve_manifest),
    # Structured logs, the run registry and the shared /metrics.
    Serve("repro serve --port 0 --log-json --log-level INFO", (
        Row('POST /v1/run {"synthetic": {"cs_fraction": 0.2, "bus_lines": 2, '
            '"iterations": 16, "compute_instr": 200}, "policy": "static", '
            '"threads": 2} > obs-run.json', _obs_run),
        Row("GET /metrics", _obs_metrics),
        Row('POST /v1/fdt {"workload": "PageMine", "scale": 0.05}'),
        Row('POST /v1/sweep {"workload": "EP", "scale": 0.05, '
            '"threads": [1, 2]}'),
        Row("GET /v1/result/{key}"),
        Row("GET /healthz"),
        Row("repro loadgen PageMine --scale 0.05 --policy fdt --endpoint "
            "/v1/fdt --port {port} --rps 20 --duration 1"),
    ), _obs_logs, _OBS),
    Row("repro obs list", env=_OBS),
    Row("repro obs show {key}", env=_OBS),
    Row("repro obs report --json", _obs_report, env=_OBS),
    # The checker over the whole roster, on a clean workload with its
    # priors beside a measured run, and on every seeded fixture; a static
    # team needs no thread slots, so a one-core machine checks too.
    Row("repro check --all --scale 0.1"),
    Row("repro check PageMine --scale 0.1"),
    Row("repro check synthetic-racy", code=1),
    Row("repro check synthetic-racy --cores 1", code=1),
    Row("repro check static-deadlock", code=1),
    *(Row(f"repro check {fixture} --json", code=1) for fixture in (
        "synthetic-racy", "synthetic-lock-inversion",
        "synthetic-unheld-unlock", "static-deadlock",
        "static-barrier-mismatch", "static-counter-in-cs")),
    Row("repro check EP --scale 0.1 --json"),
    # Perfetto artifacts, and a summary with the FDT decisions in it.
    Row("repro run EP --policy static --threads 2 --scale 0.05 "
        "--trace {out}/.trace-smoke", _trace),
    Row("repro run PageMine --scale 0.05 --trace {out}/trace-fdt --json",
        _trace_counts),
)


# -- running the table ---------------------------------------------------------

@contextlib.contextmanager
def _environ(env: Mapping[str, str]) -> Iterator[None]:
    saved = {name: os.environ.get(name) for name in env}
    os.environ.update(env)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _main(argv: list[str], stderr: io.StringIO | None = None
          ) -> tuple[int, str, str]:
    from repro.cli import main

    stdout, stderr = io.StringIO(), stderr or io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --help, or a usage error
            code = exc.code if isinstance(exc.code, int) else int(
                exc.code is not None)
    return code, stdout.getvalue(), stderr.getvalue()


def _child(argv: list[str]) -> tuple[int, str, str]:
    if argv[0] == "python":
        argv = [sys.executable, *argv[1:]]
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path},
                          timeout=TIMEOUT)
    return done.returncode, done.stdout, done.stderr


def _request(argv: list[str], port: int) -> tuple[int, str, str]:
    method, path, *body = argv
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", method=method,
        data=body[0].encode() if body else None,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=TIMEOUT) as response:
            return response.status, response.read().decode(), ""
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode(), ""


class Run:
    """One pass over the table: its scratch directory, the ``{key}`` so
    far, and every failure, as ``"<line>: <what went wrong>"``."""

    def __init__(self, out: Path) -> None:
        self.out = out
        self.key = ""
        self.failures: list[str] = []

    def fill(self, text: str, port: int | None = None) -> str:
        return (text.replace("{out}", str(self.out))
                .replace("{port}", str(port)).replace("{key}", self.key))

    def judge(self, line: str, check: Callable[[Output], object],
              output: Output) -> None:
        try:
            check(output)
        except Exception as exc:  # a failed predicate, whatever it raised
            self.failures.append(f"{line}: {type(exc).__name__}: {exc}")

    def row(self, row: Row, port: int | None = None) -> None:
        argv = [self.fill(word, port) for word in row.argv]
        try:
            with _environ({k: self.fill(v) for k, v in row.env.items()}):
                if row.request:
                    code, stdout, stderr = _request(argv, port)
                elif argv[0] == "repro":
                    code, stdout, stderr = _main(argv[1:])
                else:
                    code, stdout, stderr = _child(argv)
        except Exception as exc:  # a crash, a hang, or no reply at all
            self.failures.append(f"{row.line}: {type(exc).__name__}: {exc}")
            return
        if row.saves:
            (self.out / row.saves).write_text(stdout)
        if row.request:
            with contextlib.suppress(ValueError, AttributeError):
                self.key = json.loads(stdout).get("key") or self.key
        expected = (200 if row.request else 0) if row.code is None else row.code
        if code != expected:
            self.failures.append(f"{row.line}: exit {code}, not {expected}"
                                 f"\n{stderr[-2000:]}")
            return
        self.judge(row.line, row.check, Output(stdout, stderr, self.out))

    def serve(self, group: Serve) -> None:
        stderr = io.StringIO()
        served = threading.Event()

        def client() -> None:
            port = None
            while port is None and not served.wait(0.05):
                found = re.search(r"listening on http://[^:]+:(\d+)",
                                  stderr.getvalue())
                port = found and int(found.group(1))
            if port is None:
                return
            try:
                for row in group.rows:
                    self.row(row, port)
            finally:
                os.kill(os.getpid(), signal.SIGTERM)

        thread = threading.Thread(target=client, name="roster-client")
        argv = shlex.split(self.fill(group.line))
        with _environ({k: self.fill(v) for k, v in group.env.items()}):
            thread.start()
            try:
                code, stdout, _ = _main(argv[1:], stderr)
            except Exception as exc:  # the server crashed outright
                code, stdout = 1, ""
                stderr.write(f"{type(exc).__name__}: {exc}")
            finally:
                served.set()
            thread.join(TIMEOUT)
        if code != 0:
            self.failures.append(f"{group.line}: exit {code}, not 0"
                                 f"\n{stderr.getvalue()[-2000:]}")
            return
        self.judge(group.line, group.check,
                   Output(stdout, stderr.getvalue(), self.out))


def run(table: tuple[Row | Serve, ...], out: Path) -> list[str]:
    """Run every row of ``table`` from the repository root, writing under
    ``out``; return the failures (none when every row held)."""
    done = Run(out)
    cwd = Path.cwd()
    os.chdir(ROOT)
    try:
        with _environ({"REPRO_CACHE_DIR": str(out / "cache"),
                       "REPRO_OBS_SPANS": str(out / "spans.jsonl")}):
            for entry in table:
                if isinstance(entry, Serve):
                    done.serve(entry)
                else:
                    done.row(entry)
    finally:
        os.chdir(cwd)
    return done.failures
