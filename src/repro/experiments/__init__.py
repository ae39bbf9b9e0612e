"""The paper's tables and figures, as a registry of data over one runner.

:data:`FIGURES` maps each ``python -m repro figure`` name to a
:class:`Figure`: the panels to run (workload x machine x policy x grid)
and the columns to print.  :func:`run_panels` is the one loop that runs
them — static sweep, baseline, adaptive run, all through
:mod:`repro.jobs` — and every result is a :class:`FigureResult` of
:class:`Panel` records with ``.panels`` and ``.format()`` (the
per-experiment index lives in DESIGN.md §5; paper-vs-measured numbers
land in EXPERIMENTS.md)::

    from repro.experiments import FIGURES
    print(FIGURES["fig2"].run(scale=0.25).format())
"""

from repro.experiments.figures import FIGURES
from repro.experiments.panels import (
    Figure,
    FigureResult,
    Panel,
    PanelSpec,
    run_panels,
)

__all__ = [
    "FIGURES",
    "Figure",
    "FigureResult",
    "Panel",
    "PanelSpec",
    "run_panels",
]
