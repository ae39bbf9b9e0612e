"""Shared helpers for the figure/table benchmarks.

Every benchmark regenerates one paper table or figure, asserts its shape
claims, and writes the formatted output to ``benchmarks/results/`` so the
regenerated figures survive the run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_result(results_dir: Path):
    """Write a figure's formatted output to results/<name>.txt and echo it."""

    def _save(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return _save


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def panel(result, label: str):
    """The panel of a figure result with this label (``KeyError`` if none)."""
    for p in result.panels:
        if p.label == label:
            return p
    raise KeyError(label)
