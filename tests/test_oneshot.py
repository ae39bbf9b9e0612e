"""Tests for FDT on non-iterative kernels (Section 9)."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.fdt.policies import FdtMode, FdtPolicy
from repro.fdt.runner import Application, run_application
from repro.isa.ops import BarrierWait, Compute, Lock, Unlock
from repro.runtime.parallel import static_chunks
from repro.sim.config import MachineConfig

from tests.oneshot import OneShotKernel

CFG = MachineConfig.asplos08_baseline()


def make_cs_oneshot(executed: list | None = None,
                    work_units: int = 64) -> OneShotKernel:
    """A one-shot region with the Figure-1 CS pattern (~10% CS)."""

    def work(thread_id: int, team: int):
        if executed is not None and thread_id == 0:
            executed.append(team)
        mine = static_chunks(work_units, team)[thread_id]
        for _ in mine:
            yield Compute(1800)
            yield Lock(0)
            yield Compute(200)
            yield Unlock(0)
        yield BarrierWait(0)

    def sample(i: int):
        # The synthesized sample: one work unit's behaviour.
        yield Compute(1800)
        yield Lock(0)
        yield Compute(200)
        yield Unlock(0)

    return OneShotKernel("oneshot-cs", work, sample, num_samples=16)


def test_requires_enough_samples():
    with pytest.raises(WorkloadError):
        OneShotKernel("x", lambda t, n: iter([]), lambda i: iter([]),
                      num_samples=5)


def test_training_consumes_only_samples():
    executed: list[int] = []
    kernel = make_cs_oneshot(executed)
    res = run_application(Application.single(kernel),
                          FdtPolicy(FdtMode.SAT), CFG)
    info = res.kernel_infos[0]
    assert info.trained_iterations <= 16
    assert executed == [info.threads], "real work ran exactly once"


def test_decision_reflects_sample_cs_fraction():
    kernel = make_cs_oneshot()
    res = run_application(Application.single(kernel),
                          FdtPolicy(FdtMode.SAT), CFG)
    info = res.kernel_infos[0]
    # 10% CS -> P_CS = sqrt(9) = 3.
    assert info.estimates.cs_fraction == pytest.approx(0.10, abs=0.02)
    assert 2 <= info.threads <= 4


def test_one_shot_work_is_split_by_the_team():
    kernel = make_cs_oneshot()
    res = run_application(Application.single(kernel),
                          FdtPolicy(FdtMode.SAT), CFG)
    # Locks: 16 trained samples + 64 work units.
    assert res.result.lock_acquisitions == 16 + 64


def test_unconsumed_samples_run_on_master():
    """Samples training did not consume still execute (the peeled loop's
    remainder), on thread 0 of the execution team."""
    kernel = make_cs_oneshot()
    res = run_application(Application.single(kernel),
                          FdtPolicy(FdtMode.SAT), CFG)
    info = res.kernel_infos[0]
    assert info.trained_iterations < 16
    # All samples + all work units passed through the lock exactly once.
    assert res.result.lock_acquisitions == 16 + 64


def test_serial_iteration_views():
    kernel = make_cs_oneshot()
    sample_ops = list(kernel.serial_iteration(0))
    work_ops = list(kernel.serial_iteration(16))
    assert len(work_ops) > len(sample_ops)
    assert kernel.total_iterations == 17
