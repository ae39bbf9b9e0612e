"""The one computation behind every evaluation figure.

Each of the paper's evaluation figures is, per panel, the same three
runs of one workload on one machine — a static thread sweep, one
adaptive run (SAT, BAT or SAT+BAT) and the all-slots static baseline —
reduced to a table of ratios.  A :class:`PanelSpec` says which of the
three a panel needs, :func:`run_panels` runs them through the
:mod:`repro.jobs` subsystem, a :class:`Panel` holds the results with
the ratios derived, and a :class:`Figure` is the data that turns panels
into the printed figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

from repro.analysis.report import ascii_table, gmean
from repro.analysis.sweep import (
    SweepResult,
    ThreadPoint,
    point_from_result,
    sweep_threads,
)
from repro.fdt.runner import AppRunResult
from repro.jobs import JobRunner, JobSpec, PolicySpec, WorkloadRef
from repro.sim.config import MachineConfig


@dataclass(frozen=True, slots=True)
class PanelSpec:
    """What one panel runs: workload x machine x policy x grid; every
    run is a job."""

    label: str
    workload: WorkloadRef
    #: The adaptive run, when the figure has one.
    policy: PolicySpec | None = None
    #: The static sweep's thread counts, when the figure has one.
    grid: Sequence[int] | None = None
    #: The paper's baseline machine when omitted.
    config: MachineConfig | None = None
    #: The all-slots static run of a panel that has no sweep to take it
    #: from.
    baseline: PolicySpec | None = None


@dataclass(frozen=True, slots=True)
class Panel:
    """One panel (or table row) of a figure, with its ratios derived."""

    label: str
    sweep: SweepResult | None = None
    adaptive: AppRunResult | None = None
    #: The conventional-threading run everything is normalized to: the
    #: sweep's largest thread count, or the spec's explicit baseline.
    baseline: ThreadPoint | None = None

    @property
    def best_static_threads(self) -> int:
        return self.sweep.best_threads

    @property
    def threads(self) -> tuple[int, ...]:
        """The adaptive run's team size per kernel."""
        return self.adaptive.threads_used

    @property
    def vs_best(self) -> float:
        """Adaptive execution time over the sweep minimum."""
        return self.adaptive.cycles / self.sweep.min_cycles

    @property
    def norm_time(self) -> float:
        return self.adaptive.cycles / self.baseline.cycles

    @property
    def norm_power(self) -> float:
        return self.adaptive.power / self.baseline.power

    @property
    def power_saving(self) -> float:
        """Fractional power reduction vs the baseline run."""
        if self.baseline.power <= 0:
            return 0.0
        return 1.0 - self.norm_power


def run_panels(specs: Sequence[PanelSpec],
               runner: JobRunner | None = None) -> tuple[Panel, ...]:
    """Run every spec's sweep, baseline and adaptive run, in that order.

    Jobs go through ``runner`` (a fresh serial, memo-only
    :class:`~repro.jobs.JobRunner` when omitted), so a shared runner
    with a warm cache regenerates a figure without simulating.
    """
    runner = runner or JobRunner()
    panels = []
    for spec in specs:
        config = spec.config or MachineConfig.asplos08_baseline()
        sweep = baseline = adaptive = None
        job = partial(JobSpec, workload=spec.workload, config=config)
        if spec.grid is not None:
            sweep = sweep_threads(spec.workload, spec.grid, config,
                                  runner=runner)
            baseline = sweep.points[-1]
        elif spec.baseline is not None:
            res = runner.run_one(job(policy=spec.baseline))
            baseline = point_from_result(res.threads_used[0], res)
        if spec.policy is not None:
            adaptive = runner.run_one(job(policy=spec.policy))
        panels.append(Panel(spec.label, sweep, adaptive, baseline))
    return tuple(panels)


#: A table column: its header and the cell it shows for a panel.
Column = tuple[str, Callable[[Panel], object]]


@dataclass(frozen=True, slots=True)
class Figure:
    """One table or figure of the paper, as data.

    ``title`` and the column headers may name the baseline's thread
    count as ``{baseline}``, so a figure run on a short grid or a small
    machine does not claim the paper's 32.
    """

    title: str
    #: Keyword knobs (scale, grid, workloads, ...) -> the panels to run;
    #: the defaults are the figure as ``repro figure`` prints it, and an
    #: entry that simulates nothing has no panels.
    specs: Callable[..., Sequence[PanelSpec]] = tuple
    columns: tuple[Column, ...] = ()
    #: One more table row under the panels' rows.
    summary: Callable[["FigureResult"], Sequence[object]] | None = None
    #: Whatever follows the table: charts, the figure's own finding,
    #: or the whole body of an entry that has no panels.
    footer: Callable[["FigureResult"], str] | None = None

    def run(self, runner: JobRunner | None = None,
            **knobs: object) -> "FigureResult":
        return FigureResult(self, run_panels(self.specs(**knobs), runner))


@dataclass(frozen=True, slots=True)
class FigureResult:
    """A figure's panels, and the text :class:`Figure` makes of them."""

    figure: Figure
    panels: tuple[Panel, ...]

    @property
    def rows(self) -> list[tuple[object, ...]]:
        """The table's cells, one row per panel."""
        return [tuple(cell(p) for _, cell in self.figure.columns)
                for p in self.panels]

    @property
    def gmean_time(self) -> float:
        return gmean(p.norm_time for p in self.panels)

    @property
    def gmean_power(self) -> float:
        return gmean(p.norm_power for p in self.panels)

    def _named(self, text: str) -> str:
        counts = sorted({p.baseline.threads for p in self.panels
                         if p.baseline is not None})
        return text.format(baseline="/".join(map(str, counts)))

    @property
    def title(self) -> str:
        return self._named(self.figure.title)

    def format(self) -> str:
        fig = self.figure
        parts = [self.title]
        if fig.columns:
            rows = self.rows
            if fig.summary is not None:
                rows.append(tuple(fig.summary(self)))
            parts.append(ascii_table(
                [self._named(header) for header, _ in fig.columns], rows))
        if fig.footer is not None:
            parts.append(fig.footer(self))
        return "\n".join(parts)
