"""Unit tests for the kernel base classes and adapters."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.fdt.kernel import DataParallelKernel, TeamParallelKernel
from repro.isa.ops import BarrierWait, Compute
from tests.programs import load

FunctionKernel = load("examples/dynamic_scheduling.py").FunctionKernel


def test_function_kernel_wraps_a_plain_body():
    calls = []

    def body(i):
        calls.append(i)
        yield Compute(10)

    kernel = FunctionKernel("fn", total_iterations=5, body=body)
    assert kernel.total_iterations == 5
    list(kernel.serial_iteration(3))
    assert calls == [3]


def test_function_kernel_rejects_empty_loop():
    with pytest.raises(WorkloadError):
        FunctionKernel("fn", total_iterations=0, body=lambda i: iter([]))


def test_data_parallel_factories_chunk_iterations():
    seen: list[list[int]] = [[], [], []]

    class K(DataParallelKernel):
        name = "k"

        @property
        def total_iterations(self):
            return 10

        def serial_iteration(self, i):
            yield Compute(1)

    kernel = K()
    factories = kernel.factories(range(10), 3)
    assert len(factories) == 3
    counts = [sum(1 for _ in f(t, 3)) for t, f in enumerate(factories)]
    assert sum(counts) == 10
    assert max(counts) - min(counts) <= 1


def test_data_parallel_respects_range_offset():
    visited = []

    class K(DataParallelKernel):
        name = "k"

        @property
        def total_iterations(self):
            return 100

        def serial_iteration(self, i):
            visited.append(i)
            yield Compute(1)

    kernel = K()
    for t, f in enumerate(kernel.factories(range(40, 50), 2)):
        list(f(t, 2))
    assert sorted(visited) == list(range(40, 50))


def test_team_parallel_every_thread_runs_every_iteration():
    visits: list[tuple[int, int]] = []

    class K(TeamParallelKernel):
        name = "k"

        @property
        def total_iterations(self):
            return 3

        def team_iteration(self, i, tid, team):
            visits.append((i, tid))
            yield Compute(1)
            yield BarrierWait(0)

    kernel = K()
    for tid, f in enumerate(kernel.factories(range(3), 2)):
        list(f(tid, 2))
    assert sorted(visits) == [(i, t) for i in range(3) for t in range(2)]


def test_team_parallel_serial_view_is_team_of_one():
    class K(TeamParallelKernel):
        name = "k"

        @property
        def total_iterations(self):
            return 1

        def team_iteration(self, i, tid, team):
            yield Compute(team * 100)

    ops = list(K().serial_iteration(0))
    assert ops == [Compute(100)]


def test_validate_team_rejects_zero():
    class K(DataParallelKernel):
        name = "k"

        @property
        def total_iterations(self):
            return 1

        def serial_iteration(self, i):
            yield Compute(1)

    with pytest.raises(WorkloadError):
        K().factories(range(1), 0)
