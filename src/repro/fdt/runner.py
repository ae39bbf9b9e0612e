"""Run whole applications (sequences of kernels) under a threading policy.

An :class:`Application` is an ordered list of kernels — most paper
workloads have one, MTwister has two (the Mersenne-Twister generator and
the Box-Muller transform), which is exactly the case where per-kernel FDT
beats any single static choice (paper Section 6.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import WorkloadError
from repro.fdt.kernel import Kernel
from repro.fdt.policies import KernelRunInfo, ThreadingPolicy
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.stats import RunResult


@dataclass(frozen=True, slots=True)
class Application:
    """A named, ordered collection of parallel kernels."""

    name: str
    kernels: tuple[Kernel, ...]

    def __post_init__(self) -> None:
        if not self.kernels:
            raise WorkloadError(f"application {self.name!r} has no kernels")

    @staticmethod
    def single(kernel: Kernel, name: str | None = None) -> "Application":
        """Wrap one kernel as an application."""
        return Application(name=name or kernel.name, kernels=(kernel,))


@dataclass(frozen=True, slots=True)
class AppRunResult:
    """Outcome of one application run under one policy."""

    app_name: str
    policy_name: str
    kernel_infos: tuple[KernelRunInfo, ...] = field(default=())

    @property
    def cycles(self) -> int:
        """End-to-end execution time in cycles."""
        return sum(k.total_cycles for k in self.kernel_infos)

    @property
    def result(self) -> RunResult:
        """Machine-counter totals across all kernels."""
        total = self.kernel_infos[0].result
        for info in self.kernel_infos[1:]:
            total = total + info.result
        return total

    @property
    def power(self) -> float:
        """Average active cores over the whole run (paper's power)."""
        return self.result.power

    @property
    def threads_used(self) -> tuple[int, ...]:
        """Execution-phase team size per kernel."""
        return tuple(k.threads for k in self.kernel_infos)

    @property
    def mean_threads(self) -> float:
        """Execution-time-weighted average team size (MTwister's "21")."""
        total_cycles = sum(k.execution_cycles for k in self.kernel_infos)
        if total_cycles == 0:
            return float(self.kernel_infos[0].threads)
        weighted = sum(k.threads * k.execution_cycles
                       for k in self.kernel_infos)
        return weighted / total_cycles


def run_application(app: Application, policy: ThreadingPolicy,
                    config: MachineConfig | None = None,
                    machine: Machine | None = None) -> AppRunResult:
    """Execute every kernel of ``app`` under ``policy``.

    A fresh machine is built unless one is supplied (supplying one lets
    experiments share warm state deliberately; the default mirrors the
    paper's run-each-application-to-completion methodology).  The
    machine built here is closed before returning, also when the run
    raises; a supplied one is borrowed and stays open, for its owner to
    reuse and close.
    """
    if machine is None:
        with Machine(config or MachineConfig.asplos08_baseline()) as owned:
            return run_application(app, policy, machine=owned)
    if machine.observer is not None:
        machine.observer.on_app_begin(app.name, policy.name,
                                      machine.events.now)
    infos = []
    for k in app.kernels:
        info = policy.run_kernel(machine, k)
        if machine.observer is not None:
            machine.observer.on_kernel_complete(
                k.name, info.threads, info.training_cycles,
                info.execution_cycles, machine.events.now)
        infos.append(info)
    return AppRunResult(
        app_name=app.name,
        policy_name=policy.name,
        kernel_infos=tuple(infos),
    )
