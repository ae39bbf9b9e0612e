"""Unit tests for FDT training: instrumentation and termination rules."""

from __future__ import annotations

from typing import Iterator

import pytest

from repro.errors import TrainingError
from repro.fdt.kernel import DataParallelKernel
from repro.fdt.training import (
    TrainingConfig,
    TrainingLog,
    TrainingSample,
    instrumented_training_program,
)
from repro.isa.ops import Compute, Lock, Op, Unlock
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine


def make_log(total=1000, cores=32, **cfg) -> TrainingLog:
    return TrainingLog(config=TrainingConfig(**cfg), total_iterations=total,
                       num_cores=cores)


def sample(i=0, total=1000, cs=20, bus=0) -> TrainingSample:
    return TrainingSample(iteration=i, total_cycles=total, cs_cycles=cs,
                          bus_busy_cycles=bus)


# -- TrainingSample -----------------------------------------------------------

def test_sample_nocs_and_ratio():
    s = sample(total=1000, cs=200)
    assert s.nocs_cycles == 800
    assert s.cs_ratio == pytest.approx(0.25)


def test_sample_all_cs_has_infinite_ratio():
    s = sample(total=100, cs=100)
    assert s.cs_ratio == float("inf")


# -- termination rules --------------------------------------------------------

def test_stability_rule_stops_sat_only_training():
    log = make_log(need_bat=False)
    assert log.record(sample(0)) is False
    assert log.record(sample(1)) is False
    assert log.record(sample(2)) is True  # three stable ratios
    assert log.stop_reason == "measurements-stable"


def test_unstable_ratios_keep_training():
    log = make_log(need_bat=False)
    log.record(sample(0, cs=20))
    log.record(sample(1, cs=60))  # ratio jumps 3x
    assert log.record(sample(2, cs=20)) is False


def test_iteration_cap_stops_training():
    log = make_log(total=1000, need_bat=False, min_iterations=1,
                   max_iteration_fraction=0.003)
    for i in range(3):
        stopped = log.record(sample(i, cs=20 + 10 * i))
    assert stopped is True
    assert log.stop_reason == "iteration-cap"


def test_cap_never_exceeds_half_the_loop():
    cfg = TrainingConfig(min_iterations=50)
    assert cfg.max_training_iterations(20) == 10


def test_cap_is_one_percent_at_paper_scale():
    cfg = TrainingConfig()
    assert cfg.max_training_iterations(10_000) == 100


def test_bat_early_out_when_bus_cannot_saturate():
    # BU * cores << 1 and enough cycles observed.
    log = make_log(total=100_000, cores=32, need_sat=False)
    log.record(sample(0, total=6000, bus=10))
    assert log.record(sample(1, total=6000, bus=10)) is True
    assert log.stop_reason == "measurements-stable"


def test_bat_keeps_training_when_saturable():
    log = make_log(total=100_000, cores=32, need_sat=False)
    log.record(sample(0, total=6000, bus=900))  # 15% utilization
    assert log.record(sample(1, total=6000, bus=900)) is False


def test_bat_needs_minimum_cycles_before_early_out():
    log = make_log(total=100_000, cores=32, need_sat=False)
    assert log.record(sample(0, total=500, bus=0)) is False  # < 10k cycles


def test_combined_needs_both_rules():
    log = make_log(total=100_000, cores=32)
    # SAT stable immediately, but the bus looks saturable -> continue.
    for i in range(5):
        assert log.record(sample(i, total=6000, cs=0, bus=900)) is False


# -- aggregates ----------------------------------------------------------------

def test_means():
    log = make_log()
    log.record(sample(0, total=1000, cs=100, bus=50))
    log.record(sample(1, total=2000, cs=300, bus=150))
    assert log.mean_cs_cycles() == pytest.approx(200)
    assert log.mean_nocs_cycles() == pytest.approx(1300)
    assert log.mean_bus_utilization() == pytest.approx(200 / 3000)


def test_empty_log_raises():
    log = make_log()
    with pytest.raises(TrainingError):
        log.mean_cs_cycles()


# -- the instrumented program (in the simulator) ------------------------------

class _CsKernel(DataParallelKernel):
    """Deterministic kernel: 500-instr parallel part, 100-instr CS."""

    name = "unit-cs"

    @property
    def total_iterations(self) -> int:
        return 100

    def serial_iteration(self, i: int) -> Iterator[Op]:
        yield Compute(500)
        yield Lock(0)
        yield Compute(100)
        yield Unlock(0)


def test_instrumentation_measures_cs_share():
    machine = Machine(MachineConfig.small())
    kernel = _CsKernel()
    log = TrainingLog(config=TrainingConfig(need_bat=False),
                      total_iterations=kernel.total_iterations,
                      num_cores=machine.config.num_cores)
    machine.run_serial(
        lambda tid, team: instrumented_training_program(
            kernel, range(kernel.total_iterations), log))
    assert log.trained_iterations >= 3
    # 100 of 600 instructions inside the CS; counter reads and the lock
    # itself add a little, so allow a band around 1/6.
    for s in log.samples:
        assert 0.12 < s.cs_cycles / s.total_cycles < 0.30


def test_instrumentation_handles_nested_locks():
    class Nested(_CsKernel):
        def serial_iteration(self, i: int) -> Iterator[Op]:
            yield Compute(500)
            yield Lock(0)
            yield Lock(1)
            yield Compute(100)
            yield Unlock(1)
            yield Unlock(0)

    machine = Machine(MachineConfig.small())
    kernel = Nested()
    log = TrainingLog(config=TrainingConfig(need_bat=False),
                      total_iterations=100, num_cores=8)
    machine.run_serial(
        lambda tid, team: instrumented_training_program(
            kernel, range(100), log))
    # Only the outermost lock pair is timed (no double counting).
    for s in log.samples:
        assert s.cs_cycles < s.total_cycles


def test_training_stops_midway_leaves_remaining_iterations():
    machine = Machine(MachineConfig.small())
    kernel = _CsKernel()
    log = TrainingLog(config=TrainingConfig(need_bat=False),
                      total_iterations=100, num_cores=8)
    machine.run_serial(
        lambda tid, team: instrumented_training_program(
            kernel, range(100), log))
    assert log.trained_iterations < 100
