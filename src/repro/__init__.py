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
* :mod:`repro.check` — the program checker: races, deadlocks and
  barrier hangs proved from the op streams, without a simulated run.

Quickstart::

    from repro import MachineConfig, FdtPolicy, run_application, workloads

    app = workloads.get("PageMine").build()
    result = run_application(app, FdtPolicy())
    print(result.threads_used, result.cycles, result.power)

Names resolve on first use (PEP 562): ``import repro`` loads no
simulator, and ``from repro import workloads`` imports the package.
``repro.check``, ``repro.trace``, ``repro.analysis`` and ``repro.serve``
do the same through :func:`_exports`.
"""

from importlib import import_module
from typing import Any, Callable, Mapping


def _exports(package: str, names: Mapping[str, str]) -> Callable[[str], Any]:
    """The module ``__getattr__`` of ``package``, whose literal
    ``_EXPORTS`` map ``names`` says which submodule defines each name:
    the submodule is imported when the name is first read."""

    def __getattr__(name: str) -> Any:
        module = names.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(import_module(f"{package}.{module}"), name)

    return __getattr__


_EXPORTS = {
    "Machine": "sim",
    "MachineConfig": "sim",
    "RunResult": "sim",
    "Application": "fdt",
    "AppRunResult": "fdt",
    "FdtMode": "fdt",
    "FdtPolicy": "fdt",
    "StaticPolicy": "fdt",
    "run_application": "fdt",
    "SatModel": "models",
    "BatModel": "models",
    "CombinedModel": "models",
    "sweep_threads": "analysis",
    "oracle_choice": "analysis",
}

__version__ = "1.0.0"

__all__ = [*_EXPORTS, "workloads", "__version__"]

__getattr__ = _exports(__name__, _EXPORTS)
