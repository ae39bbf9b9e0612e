"""repro — reproduction of "Feedback-Driven Threading" (ASPLOS 2008).

Suleman, Qureshi, and Patt's Feedback-Driven Threading (FDT) dynamically
picks the number of threads for a parallel kernel by training on a few
iterations and applying two analytical models: Synchronization-Aware
Threading (SAT, ``P_CS = sqrt(T_NoCS / T_CS)``) and Bandwidth-Aware
Threading (BAT, ``P_BW = 1 / BU_1``), combined as their minimum.

This package contains the complete stack the paper's evaluation needs:

* :mod:`repro.sim` — a cycle-level 32-core CMP simulator (Table 1).
* :mod:`repro.isa` / :mod:`repro.runtime` — the instruction stream and
  threading runtime simulated programs run on.
* :mod:`repro.fdt` — the FDT framework itself (the contribution).
* :mod:`repro.models` — the closed-form models (Eq. 1-7).
* :mod:`repro.workloads` — the twelve Table 2 workloads.
* :mod:`repro.analysis` / :mod:`repro.experiments` — sweeps, the oracle,
  and the paper's figures as a registry of data over one runner.

Quickstart::

    from repro import MachineConfig, FdtPolicy, run_application, workloads

    app = workloads.get("PageMine").build()
    result = run_application(app, FdtPolicy())
    print(result.threads_used, result.cycles, result.power)
"""

from repro import workloads
from repro.analysis import oracle_choice, sweep_threads
from repro.fdt import (
    Application,
    AppRunResult,
    FdtMode,
    FdtPolicy,
    StaticPolicy,
    run_application,
)
from repro.models import BatModel, CombinedModel, SatModel
from repro.sim import Machine, MachineConfig, RunResult

__version__ = "1.0.0"

__all__ = [
    "Machine",
    "MachineConfig",
    "RunResult",
    "Application",
    "AppRunResult",
    "FdtMode",
    "FdtPolicy",
    "StaticPolicy",
    "run_application",
    "SatModel",
    "BatModel",
    "CombinedModel",
    "sweep_threads",
    "oracle_choice",
    "workloads",
    "__version__",
]
