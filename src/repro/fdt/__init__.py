"""Feedback-Driven Threading — the paper's primary contribution.

FDT replaces "one thread per core" with a measure-then-decide flow
(paper Figure 5):

1. **Train** — run a small leading slice of the parallel kernel single-
   threaded with instrumentation that reads the cycle counter around
   critical sections (for SAT) and the bus-busy counter per iteration
   (for BAT).  Training stops early when the measurement is stable
   (SAT: T_CS/T_NoCS within 5 % for 3 consecutive iterations), when BAT
   can rule out bus saturation (after 10 000 cycles, if
   ``BU_avg * num_cores < 100 %``), and in any case after 1 % of the
   loop's iterations.
2. **Estimate** — plug the measurements into the analytical models:
   ``P_CS = round(sqrt(T_NoCS / T_CS))`` and ``P_BW = ceil(1 / BU_1)``,
   then ``P_FDT = min(P_CS, P_BW, num_cores)`` — one function,
   :func:`~repro.fdt.estimators.estimate_from`, and one record of what
   was decided from what, :class:`~repro.fdt.estimators.Decision`.
3. **Execute** — run the remaining iterations with the chosen team size
   (the OpenMP ``num_threads`` clause analogue).

Public entry points:

* :class:`~repro.fdt.kernel.Kernel` and friends — how workloads describe
  a parallelized loop to FDT.
* :class:`~repro.fdt.policies.FdtPolicy` (modes SAT / BAT / COMBINED) and
  the :class:`~repro.fdt.policies.StaticPolicy` baseline; every policy,
  the Section 9 ones of :mod:`repro.fdt.extensions` included, is an entry
  of :data:`~repro.fdt.policies.POLICIES`.
* :func:`~repro.fdt.runner.run_application` — run a multi-kernel
  application under a policy and collect time/power.
"""

from repro.fdt.kernel import DataParallelKernel, Kernel, TeamParallelKernel
from repro.fdt.training import TrainingConfig, TrainingLog, TrainingSample
from repro.fdt.estimators import Decision, Estimates, FdtMode, estimate, estimate_from
from repro.fdt.policies import FdtPolicy, StaticPolicy, ThreadingPolicy
from repro.fdt import extensions  # noqa: F401  (registers the §9 policies)
from repro.fdt.priors import (
    PriorAgreement,
    StaticPriors,
    derive_priors,
    measure_estimates,
)
from repro.fdt.runner import Application, AppRunResult, KernelRunInfo, run_application

__all__ = [
    "Kernel",
    "DataParallelKernel",
    "TeamParallelKernel",
    "TrainingConfig",
    "TrainingLog",
    "TrainingSample",
    "Decision",
    "Estimates",
    "estimate",
    "estimate_from",
    "FdtMode",
    "FdtPolicy",
    "StaticPolicy",
    "ThreadingPolicy",
    "StaticPriors",
    "PriorAgreement",
    "derive_priors",
    "measure_estimates",
    "Application",
    "AppRunResult",
    "KernelRunInfo",
    "run_application",
]
