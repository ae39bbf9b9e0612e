"""Tests for dynamic loop scheduling."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.fdt.policies import StaticPolicy
from repro.fdt.runner import Application, run_application
from repro.isa.ops import Compute
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from tests.programs import load

#: Dynamic scheduling is the example's own code.
example = load("examples/dynamic_scheduling.py")
FunctionKernel, dynamic_factories = example.FunctionKernel, example.dynamic_factories

CFG = MachineConfig.small()


def counting_kernel(total=32, record=None):
    def body(i):
        if record is not None:
            record.append(i)
        yield Compute(200)
    return FunctionKernel("count", total_iterations=total, body=body)


def imbalanced_kernel(total=32):
    """Front-loaded cost: static chunking strands all the expensive
    iterations on thread 0 (the classic imbalance case)."""
    def body(i):
        yield Compute(10_000 if i < 4 else 400)
    return FunctionKernel("skew", total_iterations=total, body=body)


def test_every_iteration_executes_exactly_once():
    record: list[int] = []
    kernel = counting_kernel(total=40, record=record)
    m = Machine(CFG)
    m.run_parallel(dynamic_factories(kernel, range(40), 4, chunk_size=3),
                   spawn_overhead=False)
    assert sorted(record) == list(range(40))


def test_respects_range_offsets():
    record: list[int] = []
    kernel = counting_kernel(total=40, record=record)
    m = Machine(CFG)
    m.run_parallel(dynamic_factories(kernel, range(10, 25), 3),
                   spawn_overhead=False)
    assert sorted(record) == list(range(10, 25))


def test_deterministic_assignment():
    def run():
        record: list[int] = []
        kernel = counting_kernel(total=30, record=record)
        m = Machine(CFG)
        m.run_parallel(dynamic_factories(kernel, range(30), 4, 2),
                       spawn_overhead=False)
        return record

    assert run() == run()


def test_dynamic_beats_static_on_imbalanced_loop():
    static = run_application(Application.single(imbalanced_kernel()),
                             StaticPolicy(4), CFG)
    m = Machine(CFG)
    before = m.snapshot()
    m.run_parallel(dynamic_factories(imbalanced_kernel(), range(32), 4,
                                     chunk_size=1),
                   spawn_overhead=False)
    dynamic_cycles = m.result_since(before).cycles
    # Static chunking strands all four expensive iterations on thread 0;
    # dynamic scheduling spreads them across the team.
    assert dynamic_cycles < 0.8 * static.cycles


def test_small_chunks_pay_scheduler_serialization():
    """With tiny work per grab, the scheduler lock dominates: more
    threads stop helping — the scheduler is itself a critical section."""
    def tiny(i):
        yield Compute(40)

    kernel = FunctionKernel("tiny", total_iterations=256, body=tiny)
    cycles = {}
    for threads in (1, 8):
        m = Machine(CFG)
        before = m.snapshot()
        m.run_parallel(dynamic_factories(kernel, range(256), threads, 1),
                       spawn_overhead=False)
        cycles[threads] = m.result_since(before).cycles
    # Nowhere near 8x speedup: the grab lock serializes.
    assert cycles[8] > cycles[1] / 4


def test_invalid_parameters_rejected():
    kernel = counting_kernel()
    with pytest.raises(ConfigError):
        dynamic_factories(kernel, range(10), 0)
    with pytest.raises(ConfigError):
        dynamic_factories(kernel, range(10), 2, chunk_size=0)


def test_more_threads_than_iterations_terminates():
    record: list[int] = []
    kernel = counting_kernel(total=3, record=record)
    m = Machine(CFG)
    m.run_parallel(dynamic_factories(kernel, range(3), 8, 2),
                   spawn_overhead=False)
    assert sorted(record) == [0, 1, 2]
