"""Figure 14 by its own path: ``benchmarks/perf`` imports and wraps this.

The figure itself is the ``fig14`` entry of
:data:`repro.experiments.figures.FIGURES`; this function only fixes the
call the benchmark harness times.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.figures import ALL_WORKLOADS, FIGURES
from repro.experiments.panels import FigureResult
from repro.jobs import JobRunner
from repro.sim.config import MachineConfig


def run_fig14(scale: float = 0.25,
              workloads: Sequence[str] = ALL_WORKLOADS,
              config: MachineConfig | None = None,
              scales: dict[str, float] | None = None,
              runner: JobRunner | None = None) -> FigureResult:
    """Regenerate Figure 14 over the given workloads.

    Per application, exactly two jobs are submitted through ``runner``
    (a fresh serial, memo-only runner when omitted): the one-thread-per-
    core baseline, then the FDT run.
    """
    return FIGURES["fig14"].run(runner, scale=scale, workloads=workloads,
                                config=config, scales=scales)
