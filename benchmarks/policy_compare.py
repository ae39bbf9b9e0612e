"""Side-by-side policy comparison on a set of workloads (the shootout).

The building block for "shootout" studies: run every (workload, policy)
pair on a fresh machine, normalize within each workload to a chosen
baseline policy, and tabulate time and power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.analysis.report import ascii_table, gmean
from repro.errors import ConfigError
from repro.fdt.policies import ThreadingPolicy
from repro.fdt.runner import Application, run_application
from repro.sim.config import MachineConfig

AppBuilder = Callable[[], Application]


@dataclass(frozen=True, slots=True)
class PolicyCell:
    """One (workload, policy) outcome, normalized to the baseline."""

    workload: str
    policy: str
    threads: tuple[int, ...]
    cycles: int
    power: float
    norm_time: float
    norm_power: float


@dataclass(frozen=True, slots=True)
class Comparison:
    """The full matrix plus per-policy summaries."""

    baseline: str
    cells: tuple[PolicyCell, ...]

    def cell(self, workload: str, policy: str) -> PolicyCell:
        for c in self.cells:
            if c.workload == workload and c.policy == policy:
                return c
        raise KeyError((workload, policy))

    @property
    def policies(self) -> list[str]:
        seen: list[str] = []
        for c in self.cells:
            if c.policy not in seen:
                seen.append(c.policy)
        return seen

    @property
    def workloads(self) -> list[str]:
        seen: list[str] = []
        for c in self.cells:
            if c.workload not in seen:
                seen.append(c.workload)
        return seen

    def gmean_time(self, policy: str) -> float:
        return gmean(c.norm_time for c in self.cells if c.policy == policy)

    def gmean_power(self, policy: str) -> float:
        return gmean(c.norm_power for c in self.cells if c.policy == policy)

    def format(self) -> str:
        rows = []
        for c in self.cells:
            rows.append((c.workload, c.policy,
                         "/".join(map(str, c.threads)),
                         c.norm_time, c.norm_power))
        for policy in self.policies:
            rows.append(("gmean", policy, "",
                         self.gmean_time(policy), self.gmean_power(policy)))
        return (f"Policy comparison (normalized to {self.baseline})\n"
                + ascii_table(("workload", "policy", "threads",
                               "norm time", "norm power"), rows))


def compare_policies(builders: dict[str, AppBuilder],
                     policies: Sequence[ThreadingPolicy],
                     config: MachineConfig | None = None,
                     baseline_index: int = 0) -> Comparison:
    """Run the full matrix.

    Args:
        builders: workload name -> zero-arg application builder.
        policies: the contenders; ``policies[baseline_index]`` is the
            normalization baseline.
        config: machine (baseline Table 1 when omitted).
        baseline_index: which policy normalizes each workload's row.
    """
    if not builders or not policies:
        raise ConfigError("need at least one workload and one policy")
    if not 0 <= baseline_index < len(policies):
        raise ConfigError("baseline_index out of range")
    cfg = config or MachineConfig.asplos08_baseline()
    cells: list[PolicyCell] = []
    for name, build in builders.items():
        runs = [run_application(build(), policy, cfg) for policy in policies]
        base = runs[baseline_index]
        for policy, run in zip(policies, runs):
            cells.append(PolicyCell(
                workload=name,
                policy=policy.name,
                threads=run.threads_used,
                cycles=run.cycles,
                power=run.power,
                norm_time=run.cycles / base.cycles,
                norm_power=run.power / base.power if base.power else 0.0,
            ))
    return Comparison(baseline=policies[baseline_index].name,
                      cells=tuple(cells))
