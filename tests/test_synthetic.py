"""Tests for the synthetic dial-a-limiter kernels."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.fdt.policies import FdtMode, FdtPolicy, StaticPolicy
from repro.fdt.runner import run_application
from repro.isa.ops import BarrierWait, Load, Lock
from repro.sim.config import MachineConfig
from repro.workloads.synthetic import (
    SyntheticKernel,
    SyntheticParams,
    build_synthetic,
)

from tests.programs import validate_program

CFG = MachineConfig.asplos08_baseline()
SMALL = MachineConfig.small()


def test_params_validation():
    with pytest.raises(WorkloadError):
        SyntheticParams(iterations=0)
    with pytest.raises(WorkloadError):
        SyntheticParams(cs_instr=-1)
    with pytest.raises(WorkloadError):
        build_synthetic(cs_fraction=1.0)


def test_pure_compute_kernel_has_no_locks_or_loads():
    kernel = SyntheticKernel(SyntheticParams(iterations=4, cs_instr=0,
                                             lines_per_iteration=0))
    ops = validate_program(kernel.serial_iteration(0))
    assert not any(isinstance(op, Lock) for op in ops)
    assert not any(isinstance(op, Load) for op in ops)
    assert any(isinstance(op, BarrierWait) for op in ops)


def test_cs_knob_adds_exactly_one_critical_section():
    kernel = SyntheticKernel(SyntheticParams(iterations=4, cs_instr=500))
    ops = validate_program(kernel.serial_iteration(0))
    assert sum(1 for op in ops if isinstance(op, Lock)) == 1


def test_streaming_knob_emits_fresh_lines_without_reuse():
    kernel = SyntheticKernel(SyntheticParams(iterations=3,
                                             lines_per_iteration=8))
    addrs = set()
    for i in range(3):
        for op in kernel.serial_iteration(i):
            if isinstance(op, Load):
                addrs.add(op.addr)
    assert len(addrs) == 24  # no address reused


def test_cs_fraction_measured_close_to_requested():
    app = build_synthetic(cs_fraction=0.05, iterations=64,
                          compute_instr=40_000)
    res = run_application(app, FdtPolicy(FdtMode.SAT), CFG)
    measured = res.kernel_infos[0].estimates.cs_fraction
    assert measured == pytest.approx(0.05, abs=0.02)


def test_bus_knob_drives_bat():
    app = build_synthetic(cs_fraction=0.0, bus_lines=160, iterations=64,
                          compute_instr=10_000)
    res = run_application(app, FdtPolicy(FdtMode.BAT), CFG)
    info = res.kernel_infos[0]
    assert info.estimates.bu1 > 0.08
    assert info.threads < 32


def test_no_limiter_scales_to_all_cores():
    app = build_synthetic(cs_fraction=0.0, bus_lines=0, iterations=64)
    res = run_application(app, FdtPolicy(FdtMode.COMBINED), CFG)
    assert res.kernel_infos[0].threads == 32


def test_team_splits_work():
    kernel = SyntheticKernel(SyntheticParams(iterations=2,
                                             lines_per_iteration=16))
    t0 = [op for op in kernel.team_iteration(0, 0, 4) if isinstance(op, Load)]
    t3 = [op for op in kernel.team_iteration(0, 3, 4) if isinstance(op, Load)]
    assert len(t0) == len(t3) == 4
    assert {o.addr for o in t0}.isdisjoint({o.addr for o in t3})


def test_runs_under_static_policy_on_small_machine():
    app = build_synthetic(cs_fraction=0.1, iterations=16,
                          compute_instr=4000)
    res = run_application(app, StaticPolicy(4), SMALL)
    assert res.cycles > 0
    assert res.result.lock_acquisitions == 16 * 4
