"""The CLI as a surface: every registered leaf parses, the shared flag
groups reach every leaf, and a flag's default is its config field's."""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import pkgutil
import subprocess
import sys

import pytest

import repro.check
from repro.check import (
    ThreadSanitizer,
    analyze_application,
    analyze_workload,
    check_application,
    check_workload,
)
from repro.check.discipline import DisciplineLinter
from repro.check.lockorder import LockOrderAnalyzer
from repro.check.lockset import LocksetRaceDetector
from repro.check.static import AbstractExecutor
from repro.check.static.lints import lint_findings
from repro.cli import build_parser, main
from repro.faults.chaos import (
    SERVE_ATTEMPTS,
    BatchSubmit,
    ServeSubmit,
    default_specs,
)
from repro.jobs import JobRunner
from repro.serve import AsyncServeClient, ServeConfig, run_loadgen
from repro.serve.cli import serve_config
from repro.trace import TraceRecorder


def _leaves(parser, path=()):
    """Every leaf parser under ``parser``, with the argv path to it."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
        return
    for name, child in subs[0].choices.items():
        yield from _leaves(child, path + (name,))


PARSER = build_parser()  # parsing never mutates it
LEAVES = dict(_leaves(PARSER))


def _minimal_argv(path):
    """``path`` plus a stand-in for each positional the leaf requires."""
    fill = [a.choices[0] if a.choices else "x"
            for a in LEAVES[path]._actions
            if not a.option_strings and a.nargs not in ("?", "*")]
    return [*path, *fill]


def _param(func, name):
    return inspect.signature(func).parameters[name].default


def test_every_subsystem_is_mounted():
    assert {path[0] for path in LEAVES} == {
        "list", "machine", "run", "sweep", "figure", "batch", "check",
        "trace", "serve", "loadgen", "chaos", "obs"}
    assert {path[1] for path in LEAVES if path[0] == "obs"} == {
        "list", "show", "report"}


@pytest.mark.parametrize("path", sorted(LEAVES), ids=" ".join)
def test_every_leaf_has_help_and_the_logging_flags(path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        PARSER.parse_args([*path, "--help"])
    assert exit_info.value.code == 0
    assert "--log-level" in capsys.readouterr().out
    args = PARSER.parse_args(
        [*_minimal_argv(path), "--log-json", "--log-level", "debug"])
    assert (args.log_json, args.log_level) == (True, "DEBUG")
    quiet = PARSER.parse_args(_minimal_argv(path))
    assert (quiet.log_json, quiet.log_level) == (False, "WARNING")


def test_log_level_is_validated(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["list", "--log-level", "BOGUS"])
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_logging_flags_before_the_obs_verb_survive_the_leaf_defaults():
    args = build_parser().parse_args(
        ["obs", "--log-json", "--log-level", "INFO", "list"])
    assert (args.log_json, args.log_level) == (True, "INFO")


def test_flag_defaults_are_the_config_and_library_defaults():
    parser = build_parser()
    serve, config = parser.parse_args(["serve"]), ServeConfig()
    for flag, field in [
            ("host", "host"), ("queue_depth", "queue_depth"),
            ("retry_after", "retry_after"), ("workers", "workers"),
            ("max_batch", "max_batch"), ("batch_window", "batch_window"),
            ("request_timeout", "request_timeout"), ("jobs", "jobs"),
            ("timeout", "job_timeout"), ("cache_dir", "cache_dir"),
            ("no_cache", "no_cache"), ("preflight", "preflight"),
            ("manifest", "manifest_path")]:
        assert getattr(serve, flag) == getattr(config, field), flag
    # The one documented exception: a fixed port on the command line,
    # an ephemeral one in the library.
    assert (serve.port, config.port) == (8080, 0)

    trace = parser.parse_args(["trace", "EP"])
    assert trace.sample_interval == _param(TraceRecorder, "sample_interval")

    loadgen = parser.parse_args(["loadgen"])
    assert loadgen.rps == _param(run_loadgen, "rps")
    assert loadgen.duration == _param(run_loadgen, "duration")
    assert loadgen.endpoint == _param(run_loadgen, "endpoint")
    assert loadgen.request_timeout == _param(run_loadgen, "timeout")
    assert loadgen.host == _param(AsyncServeClient, "host")
    assert loadgen.port == _param(AsyncServeClient, "port")

    chaos = parser.parse_args(["chaos"])
    assert chaos.workloads.split(",") == list(
        _param(default_specs, "workloads"))
    assert chaos.threads == _param(default_specs, "threads")
    assert chaos.scale == _param(default_specs, "scale")
    assert chaos.jobs == _param(BatchSubmit, "jobs")
    assert chaos.attempts == SERVE_ATTEMPTS == _param(ServeSubmit, "attempts")

    assert parser.parse_args(["check"]).threads == _param(
        check_application, "threads")
    sweep = parser.parse_args(["sweep", "EP"])
    assert sweep.jobs == _param(JobRunner, "jobs")
    assert sweep.timeout == _param(JobRunner, "timeout")


def test_serve_flags_build_the_expected_config():
    args = build_parser().parse_args([
        "serve", "--host", "0.0.0.0", "--port", "9", "--queue-depth", "3",
        "--retry-after", "2.5", "--workers", "4", "--max-batch", "5",
        "--batch-window", "0.25", "--request-timeout", "7", "--jobs", "6",
        "--timeout", "8", "--cache-dir", "/tmp/c", "--no-cache",
        "--preflight", "--manifest", "m.json"])
    assert serve_config(args) == ServeConfig(
        host="0.0.0.0", port=9, queue_depth=3, retry_after=2.5, workers=4,
        max_batch=5, batch_window=0.25, request_timeout=7.0, jobs=6,
        job_timeout=8.0, cache_dir="/tmp/c", no_cache=True, preflight=True,
        manifest_path="m.json")


def test_registration_does_not_import_the_server_or_clients():
    """Mounting ``repro serve`` / ``loadgen`` reads only the serve
    config; the server and both clients load when a handler runs."""
    heavy = ("repro.serve.server", "repro.serve.loadgen",
             "repro.serve.client")
    probe = ("import sys, repro.cli; "
             f"print([m for m in {heavy!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _params(func):
    return [name for name in inspect.signature(func).parameters
            if name != "self"]


def test_repro_check_takes_no_configuration():
    """A verdict is a function of (program, machine): no ``*Config``
    dataclass anywhere under ``repro.check`` and no parameter that
    carried one."""
    for info in pkgutil.walk_packages(repro.check.__path__, "repro.check."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if (dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                assert not name.endswith("Config"), f"{info.name}.{name}"
    for cls in (ThreadSanitizer, LocksetRaceDetector, LockOrderAnalyzer,
                DisciplineLinter):
        assert _params(cls.__init__) == [], cls
    assert _params(check_application) == ["app", "config", "threads"]
    assert _params(check_workload) == ["name", "scale", "config", "threads"]
    assert _params(analyze_application) == [
        "build", "thread_counts", "config"]
    assert _params(analyze_workload) == [
        "name", "scale", "thread_counts", "config"]
    assert _params(lint_findings) == ["team"]
    assert _params(AbstractExecutor.__init__) == ["machine"]
    machine = inspect.signature(AbstractExecutor.__init__).parameters["machine"]
    assert "MachineConfig" in str(machine.annotation)
