"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.sim.cache import UNFILLED
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine

try:  # Soak profiles for the nightly chaos workflow.
    from hypothesis import HealthCheck, settings

    settings.register_profile("ci", deadline=None)
    settings.register_profile(
        "soak",
        max_examples=1000,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    # Select with REPRO_HYPOTHESIS_PROFILE=soak (the chaos-soak
    # workflow does); default stays the library default locally.
    _profile = os.environ.get("REPRO_HYPOTHESIS_PROFILE")
    if _profile:
        settings.load_profile(_profile)
except ImportError:  # pragma: no cover - property tests skip themselves
    pass


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch) -> None:
    """Point the jobs result cache at a per-test directory.

    Keeps tests away from the user's real ~/.cache/repro and gives every
    test a cold cache, so hit/miss assertions are deterministic.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture(scope="session")
def memo(tmp_path_factory):
    """One memo-only ``JobRunner`` for the whole session, keyed by
    ``JobSpec.key()``: a test that repeats another test's simulation, and
    asserts nothing about a fresh run, resolves it here.  Its results are
    the round-tripped ones ``tests/test_parity.py`` holds bit-identical
    to a direct run.  A runner binds its run registry under
    ``REPRO_CACHE_DIR`` when built, so it is built under a session
    directory, not the first test's."""
    from repro.jobs import JobRunner

    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("memo")))
        return JobRunner()


@pytest.fixture
def span_sink(tmp_path):
    """Point the process-global span sink at a per-test file and return
    a reader of what it holds: ``read(trace_id=None, name=None)`` is
    the finished spans, in finish order, optionally filtered."""
    from repro.obs.jsonl import read_jsonl
    from repro.obs.tracing import Span, recorder
    from tests.programs import span_from_dict

    path = tmp_path / "spans.jsonl"
    previous = recorder().sink
    recorder().set_sink(path)

    def read(trace_id: str | None = None,
             name: str | None = None) -> list[Span]:
        return [s for s in read_jsonl(path, span_from_dict)
                if trace_id in (None, s.trace_id) and name in (None, s.name)]

    yield read
    recorder().sink = previous


@pytest.fixture
def fast_backoff(monkeypatch) -> None:
    """Retry rounds a millisecond apart, so a retrying test barely
    sleeps (the pacing is a module constant, read at call time)."""
    from repro.jobs import backoff

    monkeypatch.setattr(backoff, "BACKOFF_BASE", 0.001)


@pytest.fixture(scope="session", autouse=True)
def _unfilled_sentinel_stays_empty():
    """Every unfilled set of every cache in the process is this one
    dict: a single stray write into it would alias them all, silently.
    """
    yield
    assert len(UNFILLED) == 0, f"a fill wrote into cache.UNFILLED: {UNFILLED}"


@pytest.fixture
def baseline_config() -> MachineConfig:
    """The paper's Table 1 machine."""
    return MachineConfig.asplos08_baseline()


@pytest.fixture
def small_config() -> MachineConfig:
    """A small machine for fast unit tests (8 cores, tiny caches)."""
    return MachineConfig.small()


@pytest.fixture
def machine(baseline_config: MachineConfig) -> Machine:
    return Machine(baseline_config)


@pytest.fixture
def small_machine(small_config: MachineConfig) -> Machine:
    return Machine(small_config)
