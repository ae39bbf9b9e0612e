"""Thread-count sweeps: the x-axis of most of the paper's figures.

A sweep runs an application once per thread count under the conventional
static policy, each run on a fresh machine (the paper's methodology:
every point is a complete execution).  Applications are rebuilt per
point because kernels carry real computed state.

Sweeps accept the workload in two forms: a zero-argument factory
callable (the legacy in-process path) or a declarative
:class:`~repro.jobs.WorkloadRef`, which routes every point through the
:mod:`repro.jobs` subsystem — deduplicated, optionally parallel,
optionally served from the on-disk result cache.  The two paths are
bit-identical because the simulator is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import ConfigError
from repro.fdt.policies import StaticPolicy
from repro.fdt.runner import Application, AppRunResult, run_application
from repro.jobs import JobRunner, JobSpec, PolicySpec, WorkloadRef
from repro.sim.config import MachineConfig

AppFactory = Callable[[], Application]

#: The default sweep grid: every thread count the paper plots (1..32).
FULL_GRID = tuple(range(1, 33))
#: A coarser grid for quick runs; includes the knees the paper reports.
COARSE_GRID = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 20, 24, 28, 32)


@dataclass(frozen=True, slots=True)
class ThreadPoint:
    """One sweep point: a full application run at a fixed thread count."""

    threads: int
    cycles: int
    power: float
    bus_utilization: float
    # Defaulted so constructors predating these fields keep working.
    spin_core_cycles: int = 0
    ipc: float = 0.0
    energy: float = 0.0


@dataclass(frozen=True, slots=True)
class SweepResult:
    """All points of one application's sweep."""

    app_name: str
    points: tuple[ThreadPoint, ...]

    def point(self, threads: int) -> ThreadPoint:
        for p in self.points:
            if p.threads == threads:
                return p
        raise ConfigError(f"sweep has no point at {threads} threads")

    @property
    def thread_counts(self) -> tuple[int, ...]:
        return tuple(p.threads for p in self.points)

    @property
    def min_cycles(self) -> int:
        return min(p.cycles for p in self.points)

    @property
    def best_threads(self) -> int:
        """Thread count of the fastest point (fewest threads on ties)."""
        best = min(self.points, key=lambda p: (p.cycles, p.threads))
        return best.threads

    def normalized_curve(self, base_threads: int = 1) -> list[float]:
        """Execution times normalized to the ``base_threads`` point."""
        base = self.point(base_threads).cycles
        return [p.cycles / base for p in self.points]

    def utilization_curve(self) -> list[float]:
        """Bus utilization per point (Figure 4b's series)."""
        return [p.bus_utilization for p in self.points]


def _clamped_counts(thread_counts: Sequence[int],
                    cfg: MachineConfig) -> list[int]:
    """Ascending unique counts within the core count (legacy semantics)."""
    counts = []
    for threads in sorted(set(thread_counts)):
        if threads < 1:
            raise ConfigError("thread counts must be >= 1")
        if threads > cfg.num_cores:
            continue
        counts.append(threads)
    if not counts:
        raise ConfigError("no sweep points within the machine's core count")
    return counts


def point_from_result(threads: int, res: AppRunResult) -> ThreadPoint:
    """The sweep point a static ``threads``-thread run amounts to."""
    r = res.result
    return ThreadPoint(
        threads=threads,
        cycles=res.cycles,
        power=r.power,
        bus_utilization=r.bus_utilization,
        spin_core_cycles=r.spin_core_cycles,
        ipc=r.ipc,
        energy=r.energy,
    )


def sweep_threads(build: AppFactory | WorkloadRef,
                  thread_counts: Sequence[int] = COARSE_GRID,
                  config: MachineConfig | None = None,
                  runner: JobRunner | None = None) -> SweepResult:
    """Run the workload once per thread count under static threading.

    Args:
        build: zero-argument application factory (called per point, run
            in-process), or a :class:`~repro.jobs.WorkloadRef` to submit
            the points as jobs.
        thread_counts: team sizes to run; clamped to the core count.
        config: machine configuration (baseline when omitted).
        runner: job runner for the :class:`~repro.jobs.WorkloadRef`
            form; a fresh serial, memo-only runner when omitted.
            Ignored for factory callables, which cannot be hashed into
            job keys.

    Returns:
        A :class:`SweepResult` in ascending thread order.
    """
    cfg = config or MachineConfig.asplos08_baseline()
    counts = _clamped_counts(thread_counts, cfg)
    if isinstance(build, WorkloadRef):
        runner = runner or JobRunner()
        results = runner.run([
            JobSpec(workload=build, policy=PolicySpec.static(t), config=cfg)
            for t in counts])
        return SweepResult(
            app_name=results[-1].app_name,
            points=tuple(point_from_result(t, res)
                         for t, res in zip(counts, results)))
    points = []
    name = ""
    for threads in counts:
        app = build()
        name = app.name
        res = run_application(app, StaticPolicy(threads), cfg)
        points.append(point_from_result(threads, res))
    return SweepResult(app_name=name, points=tuple(points))
