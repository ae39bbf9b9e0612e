"""Power accounting (paper Section 3.1), for the idle-floor ablation.

"For power measurements, we count the number of cores that are active in
a given cycle and the power is computed as the average of this value
over the entire execution time."  :class:`ActiveCorePowerModel` applies
that definition to a :class:`~repro.sim.stats.RunResult`, optionally
extended with a static (leakage) floor for idle cores — an ablation the
paper's metric implicitly sets to zero.
"""

from __future__ import annotations

from repro.sim.stats import RunResult


class ActiveCorePowerModel:
    """The paper's power metric, parameterized for ablation.

    Args:
        num_cores: cores on the chip.
        idle_fraction: power an *idle* core burns relative to an active
            one (0.0 reproduces the paper's metric exactly; a leakage
            floor like 0.2 shows how much of FDT's power saving survives
            when gating is imperfect).
    """

    def __init__(self, num_cores: int, idle_fraction: float = 0.0) -> None:
        if num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        if not 0.0 <= idle_fraction <= 1.0:
            raise ValueError("idle_fraction must be in [0, 1]")
        self.num_cores = num_cores
        self.idle_fraction = idle_fraction

    def power(self, result: RunResult) -> float:
        """Average power in active-core units over the interval."""
        if result.cycles <= 0:
            return 0.0
        active = result.busy_core_cycles / result.cycles
        idle = self.num_cores - active
        return active + self.idle_fraction * idle

    def energy(self, result: RunResult) -> float:
        """Power x time (active-core-cycles plus leakage share)."""
        return self.power(result) * result.cycles
