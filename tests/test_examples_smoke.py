"""Smoke tests for the runnable examples (the fast ones).

Each example is a script with a ``main()``; importing and running it
must succeed and print its headline output.  The slower, full-scale
examples (per_kernel_power, input_set_adaptation, machine_adaptation,
extensions_and_inspection) are exercised by the benchmarks they mirror.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from tests.programs import load

EXAMPLES = Path(__file__).parent.parent / "examples"


def load_example(name: str):
    return load(f"examples/{name}.py")


def test_examples_directory_complete():
    names = {p.stem for p in EXAMPLES.glob("*.py")}
    assert {"quickstart", "input_set_adaptation", "machine_adaptation",
            "custom_workload", "per_kernel_power",
            "extensions_and_inspection", "dynamic_scheduling",
            "sanitize_workload", "serve_client"} <= names


def test_quickstart_runs(capsys):
    load_example("quickstart").main()
    out = capsys.readouterr().out
    assert "FDT training" in out
    assert "speedup vs conventional" in out


def test_custom_workload_runs(capsys):
    load_example("custom_workload").main()
    out = capsys.readouterr().out
    assert "custom SpMV kernel under FDT" in out
    assert "P_CS" in out


def test_dynamic_scheduling_runs(capsys):
    load_example("dynamic_scheduling").main()
    out = capsys.readouterr().out
    assert "static chunks" in out
    assert "dynamic, chunk  1" in out


def test_sanitize_workload_runs(capsys):
    load_example("sanitize_workload").main()
    out = capsys.readouterr().out
    assert "locked histogram: clean=True" in out
    assert "the checker caught the dropped lock" in out


def test_serve_client_runs(capsys):
    load_example("serve_client").main()
    out = capsys.readouterr().out
    assert "FDT decision for PageMine" in out
    assert "served from cache, no simulation" in out
    assert "repro_serve_cache_hits_total 1" in out


@pytest.mark.parametrize("name", ["per_kernel_power", "machine_adaptation",
                                  "input_set_adaptation",
                                  "extensions_and_inspection"])
def test_slow_examples_are_importable(name):
    """The slow examples must at least import cleanly (their main() is
    covered by the equivalent benchmarks)."""
    module = load_example(name)
    assert callable(module.main)
