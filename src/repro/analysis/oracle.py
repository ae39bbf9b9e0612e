"""The paper's oracle comparison policy (Section 6.3).

"We implemented the oracle scheme by simulating the application for all
possible number of threads and selecting the fewest number of threads
required to be within 1% of the minimum execution time."  The oracle is
*static*: one thread count for the whole application, which is exactly
what FDT beats on multi-kernel programs like MTwister.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.sweep import SweepResult, ThreadPoint


@dataclass(frozen=True, slots=True)
class OracleChoice:
    """The oracle's pick plus the point it lands on."""

    threads: int
    point: ThreadPoint
    min_cycles: int
    tolerance: float


def oracle_choice(sweep: SweepResult, tolerance: float = 0.01) -> OracleChoice:
    """Fewest threads within ``tolerance`` of the sweep's minimum time."""
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    min_cycles = sweep.min_cycles
    threshold = min_cycles * (1.0 + tolerance)
    for p in sorted(sweep.points, key=lambda p: p.threads):
        if p.cycles <= threshold:
            return OracleChoice(threads=p.threads, point=p,
                                min_cycles=min_cycles, tolerance=tolerance)
    raise AssertionError("unreachable: the minimum always qualifies")
