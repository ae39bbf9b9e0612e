"""Power accounting (paper Section 3.1).

"For power measurements, we count the number of cores that are active in
a given cycle and the power is computed as the average of this value
over the entire execution time."  :class:`ActiveCorePowerModel` applies
that definition to a :class:`~repro.sim.stats.RunResult`, optionally
extended with a static (leakage) floor for idle cores — an ablation the
paper's metric implicitly sets to zero.
"""

from repro.power.model import ActiveCorePowerModel

__all__ = ["ActiveCorePowerModel"]
