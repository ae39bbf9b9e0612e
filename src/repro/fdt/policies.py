"""Threading policies: how many threads to run a kernel with.

* :class:`StaticPolicy` — the conventional scheme: a fixed thread count,
  defaulting to one thread per core (the paper's 32-thread baseline).
* :class:`FdtPolicy` — Feedback-Driven Threading with three modes:
  SAT (Section 4), BAT (Section 5), or the combined scheme (Section 6).

A policy consumes a :class:`~repro.fdt.kernel.Kernel` and drives a
:class:`~repro.sim.machine.Machine` through the kernel's full execution,
returning what it decided and what it cost.

This module is the single home of the paper's Figure 5 loop and of the
policy names.  :meth:`FdtPolicy.run_kernel` is the one pipeline — train
(:func:`train_kernel`), estimate, *choose*, announce, execute — and an
adaptive policy differs from another only in :meth:`FdtPolicy.choose`.
:data:`POLICIES` maps every name the CLI, ``PolicySpec`` and the
``/v1/*`` endpoints accept to the factory that builds it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

from repro.errors import ConfigError
from repro.fdt.estimators import Decision, Estimates, FdtMode, estimate
from repro.fdt.kernel import Kernel
from repro.fdt.training import (
    TrainingConfig,
    TrainingLog,
    instrumented_training_program,
)
from repro.sim.machine import Machine
from repro.sim.stats import RunResult


@dataclass(frozen=True, slots=True)
class KernelRunInfo:
    """Outcome of running one kernel under a policy."""

    kernel_name: str
    policy_name: str
    #: Thread count used for the execution phase.
    threads: int
    #: Iterations consumed by training (0 for static policies).
    trained_iterations: int
    #: Cycles spent in the single-threaded training phase.
    training_cycles: int
    #: Cycles spent in the execution phase (including spawn/join).
    execution_cycles: int
    #: Full machine-counter delta over training + execution.
    result: RunResult
    #: Estimation-stage outputs (None for static policies).
    estimates: Estimates | None = None
    #: Why training stopped ("" for static policies).
    stop_reason: str = ""

    @property
    def total_cycles(self) -> int:
        return self.training_cycles + self.execution_cycles


class ThreadingPolicy(abc.ABC):
    """Strategy for choosing and applying a kernel's thread count."""

    name: str = "policy"

    @abc.abstractmethod
    def run_kernel(self, machine: Machine, kernel: Kernel) -> KernelRunInfo:
        """Execute ``kernel`` to completion on ``machine``."""


class StaticPolicy(ThreadingPolicy):
    """Conventional threading: a fixed team size for every kernel.

    Args:
        threads: team size; None means one thread per core, the default
            of the systems the paper cites (Sun/Aachen/Hitachi OpenMP).
    """

    def __init__(self, threads: int | None = None) -> None:
        if threads is not None and threads < 1:
            raise ConfigError("static thread count must be >= 1")
        self.threads = threads
        self.name = f"static-{threads if threads else 'ncores'}"

    def run_kernel(self, machine: Machine, kernel: Kernel) -> KernelRunInfo:
        threads = self.threads or machine.config.num_cores
        threads = min(threads, machine.config.num_thread_slots)
        before = machine.snapshot()
        region = machine.run_parallel(
            kernel.factories(range(kernel.total_iterations), threads))
        return KernelRunInfo(
            kernel_name=kernel.name,
            policy_name=self.name,
            threads=threads,
            trained_iterations=0,
            training_cycles=0,
            execution_cycles=region.cycles,
            result=machine.result_since(before),
        )


def train_kernel(machine: Machine, kernel: Kernel,
                 config: TrainingConfig) -> tuple[TrainingLog, int]:
    """Figure 5's training stage: the peeled, instrumented serial loop.

    Returns the filled log and the cycles training took.  The log's
    clamp is the number of hardware thread slots — the paper's "num
    available cores", generalized for the Section 9 SMT extension where
    a core hosts several contexts — and the machine's observer sees
    every sample.
    """
    total = kernel.total_iterations
    log = TrainingLog(
        config=config,
        total_iterations=total,
        num_cores=machine.config.num_thread_slots,
        kernel_name=kernel.name,
        observer=machine.observer,
    )
    region = machine.run_serial(
        lambda tid, team: instrumented_training_program(
            kernel, range(total), log))
    return log, region.cycles


class FdtPolicy(ThreadingPolicy):
    """Feedback-Driven Threading (paper Figure 5, Sections 4.2/5.2/6.1)."""

    def __init__(self, mode: FdtMode = FdtMode.COMBINED,
                 training: TrainingConfig | None = None) -> None:
        self.mode = mode
        base = training or TrainingConfig()
        # Per-mode termination needs (Sections 4.2.1 / 5.2 / 6.1): the
        # combined scheme trains until *both* measurements settle.
        self.training = replace(
            base,
            need_sat=mode in (FdtMode.SAT, FdtMode.COMBINED),
            need_bat=mode in (FdtMode.BAT, FdtMode.COMBINED),
        )
        self.name = f"fdt-{mode.value}"

    def decide(self, estimates: Estimates) -> int:
        """The mode's thread-count decision from the estimation stage."""
        return self.mode.pick(estimates)

    def choose(self, machine: Machine, kernel: Kernel, log: TrainingLog,
               estimates: Estimates) -> tuple[int, int, int]:
        """Turn the estimates into a team size: the step policies override.

        Returns ``(threads, iterations consumed, training cycles spent)``
        where the last two count only what this step ran *beyond* the
        serial training in ``log`` — zero for the paper's modes, the
        probe slice for a policy that measures again before deciding.
        """
        return self.decide(estimates), 0, 0

    def run_kernel(self, machine: Machine, kernel: Kernel) -> KernelRunInfo:
        total = kernel.total_iterations
        before = machine.snapshot()
        slots = machine.config.num_thread_slots

        # -- training, estimation, choice ---------------------------------
        log, training_cycles = train_kernel(machine, kernel, self.training)
        estimates = estimate(log, slots)
        threads, probed, probe_cycles = self.choose(
            machine, kernel, log, estimates)
        decision = Decision(
            kernel_name=kernel.name, policy_name=self.name,
            mode=self.mode.value, num_slots=slots, total_iterations=total,
            stop_reason=log.stop_reason, samples=tuple(log.samples),
            estimates=estimates, chosen_threads=threads,
            decided_at=machine.events.now)
        if machine.observer is not None:
            machine.observer.on_fdt_decision(decision)
        self._publish_decision(decision)

        # -- execution: remaining iterations on the chosen team ------------
        trained = log.trained_iterations + probed
        remaining = range(trained, total)
        exec_cycles = 0
        if len(remaining):
            region = machine.run_parallel(
                kernel.factories(remaining, threads))
            exec_cycles = region.cycles

        return KernelRunInfo(
            kernel_name=kernel.name,
            policy_name=self.name,
            threads=threads,
            trained_iterations=trained,
            training_cycles=training_cycles + probe_cycles,
            execution_cycles=exec_cycles,
            result=machine.result_since(before),
            estimates=estimates,
            stop_reason=log.stop_reason,
        )

    def _publish_decision(self, decision: Decision) -> None:
        """Default-registry instruments for the decision just made.

        A pure observer of host-side telemetry: nothing here reads or
        writes machine state, so simulated cycles are unchanged
        (``tests/test_obs_parity.py``).
        """
        from repro.obs.registry import default_registry

        estimates = decision.estimates
        registry = default_registry()
        registry.counter(
            "repro_fdt_decisions_total",
            "FDT threading decisions, by mode.", label="mode"
        ).inc(decision.mode)
        registry.histogram(
            "repro_fdt_chosen_threads",
            "Thread counts chosen by FDT decisions.",
            buckets=(1, 2, 4, 8, 16, 32, 64)).observe(
                float(decision.chosen_threads))
        for name, help_text, value in (
            ("repro_fdt_cs_fraction",
             "Last Eq. 3 critical-section fraction estimate.",
             estimates.cs_fraction),
            ("repro_fdt_bu1",
             "Last Eq. 5 single-thread bus-utilization estimate.",
             estimates.bu1),
            ("repro_fdt_p_cs",
             "Last Eq. 3 synchronization-optimal thread count.",
             estimates.p_cs),
            ("repro_fdt_p_bw",
             "Last Eq. 5 bandwidth-optimal thread count.", estimates.p_bw),
            ("repro_fdt_p_fdt",
             "Last Eq. 7 combined thread count.", estimates.p_fdt),
        ):
            registry.gauge(name, help_text).set(float(value))


#: Every policy name the CLI, ``PolicySpec`` and the serving schema
#: accept, mapped to its factory.  Each factory builds with no argument;
#: ``static`` alone also takes a team size.  ``repro.fdt.extensions``
#: adds the Section 9 policies when the package is imported.
POLICIES: dict[str, Callable[..., ThreadingPolicy]] = {
    "static": StaticPolicy,
    "fdt": partial(FdtPolicy, FdtMode.COMBINED),
    "sat": partial(FdtPolicy, FdtMode.SAT),
    "bat": partial(FdtPolicy, FdtMode.BAT),
}


def adaptive_policies() -> tuple[str, ...]:
    """Registered names that train and decide — all but the fixed team."""
    return tuple(name for name in POLICIES if name != "static")

