"""Additional tests for the application runner plumbing."""

from __future__ import annotations

from repro.fdt.policies import StaticPolicy
from repro.fdt.runner import Application, run_application
from repro.isa.ops import Compute, Load
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from tests.programs import load

FunctionKernel = load("examples/dynamic_scheduling.py").FunctionKernel

CFG = MachineConfig.small()


def kernel(n=16, name="k"):
    return FunctionKernel(name, total_iterations=n,
                          body=lambda i: iter([Compute(100)]))


def test_application_single_uses_kernel_name():
    app = Application.single(kernel(name="mykernel"))
    assert app.name == "mykernel"
    assert Application.single(kernel(), name="custom").name == "custom"


def test_run_application_builds_fresh_machine_by_default():
    a = run_application(Application.single(kernel()), StaticPolicy(2), CFG)
    b = run_application(Application.single(kernel()), StaticPolicy(2), CFG)
    assert a.cycles == b.cycles  # identical fresh machines


def test_run_application_reuses_supplied_machine():
    m = Machine(CFG)
    first = run_application(Application.single(kernel()), StaticPolicy(2),
                            machine=m)
    second = run_application(Application.single(kernel()), StaticPolicy(2),
                             machine=m)
    # The second run starts where the first left off (warm machine).
    assert m.now >= first.cycles + second.cycles


def test_supplied_machine_keeps_caches_warm():
    def mem_kernel():
        return FunctionKernel(
            "mem", total_iterations=12,
            body=lambda i: iter([Load((1 << 21) + (i % 4) * 64)]))

    m = Machine(CFG)
    run_application(Application.single(mem_kernel()), StaticPolicy(1),
                    machine=m)
    misses_after_first = m.memsys.l3.misses
    run_application(Application.single(mem_kernel()), StaticPolicy(1),
                    machine=m)
    assert m.memsys.l3.misses == misses_after_first  # all warm


def test_result_totals_across_kernels():
    app = Application(name="pair", kernels=(kernel(8, "a"), kernel(8, "b")))
    res = run_application(app, StaticPolicy(2), CFG)
    total = res.result
    parts = [k.result for k in res.kernel_infos]
    assert total.cycles == sum(p.cycles for p in parts)
    assert total.retired_instructions == sum(p.retired_instructions
                                             for p in parts)


def test_power_is_time_weighted_across_kernels():
    app = Application(name="pair", kernels=(kernel(64, "big"),
                                            kernel(8, "small")))
    res = run_application(app, StaticPolicy(4), CFG)
    assert 0 < res.power <= CFG.num_cores


def test_kernel_infos_preserve_order():
    app = Application(name="pair", kernels=(kernel(8, "first"),
                                            kernel(8, "second")))
    res = run_application(app, StaticPolicy(1), CFG)
    assert [k.kernel_name for k in res.kernel_infos] == ["first", "second"]
