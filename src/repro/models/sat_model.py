"""Critical-section execution-time model (paper Section 4.1).

With ``T_NoCS`` cycles of perfectly parallel work and ``T_CS`` cycles of
critical section per thread-equivalent of work, the execution time with
``P`` threads is (Eq. 1)::

    T_P = T_NoCS / P  +  P * T_CS

The parallel part shrinks as 1/P while the serialized critical-section
time grows linearly in P (every thread must take its turn).  Setting the
derivative to zero (Eq. 2) yields the optimum (Eq. 3)::

    P_CS = sqrt(T_NoCS / T_CS)

so even a 1 % critical section caps useful concurrency at 10 threads —
the square-root law the paper highlights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def execution_time(t_nocs: float, t_cs: float, threads: int) -> float:
    """Eq. 1: predicted execution time with ``threads`` threads."""
    if threads < 1:
        raise ValueError("thread count must be >= 1")
    if t_nocs < 0 or t_cs < 0:
        raise ValueError("times must be non-negative")
    return t_nocs / threads + threads * t_cs


def optimal_threads_cs(t_nocs: float, t_cs: float,
                       max_threads: int | None = None) -> float:
    """Eq. 3: the real-valued optimum ``P_CS = sqrt(T_NoCS / T_CS)``.

    Args:
        t_nocs: measured time outside critical sections.
        t_cs: measured time inside critical sections.
        max_threads: optional clamp (the machine's core count).

    Returns:
        The unclamped square-root optimum, or ``inf``/``max_threads``
        when ``t_cs`` is zero (no critical section: more threads always
        help in this model).
    """
    if t_nocs < 0 or t_cs < 0:
        raise ValueError("times must be non-negative")
    if t_cs == 0:
        return float(max_threads) if max_threads is not None else math.inf
    p = math.sqrt(t_nocs / t_cs)
    if max_threads is not None:
        p = min(p, float(max_threads))
    return p


def predicted_thread_count(t_nocs: float, t_cs: float, num_cores: int) -> int:
    """SAT's integer decision: Eq. 3 rounded to nearest, clamped to cores.

    The paper rounds ``P_CS`` to the nearest integer (Section 4.2.2) and
    takes the minimum with the available core count.  At least one thread
    is always used.
    """
    if num_cores < 1:
        raise ValueError("num_cores must be >= 1")
    p = optimal_threads_cs(t_nocs, t_cs)
    if math.isinf(p):
        return num_cores
    return max(1, min(num_cores, round(p)))


@dataclass(frozen=True, slots=True)
class SatModel:
    """A fitted instance of the Section 4.1 model.

    Attributes:
        t_nocs: per-unit-of-work time outside critical sections.
        t_cs: per-unit-of-work time inside critical sections.
    """

    t_nocs: float
    t_cs: float

    def execution_time(self, threads: int) -> float:
        """Eq. 1 for this workload."""
        return execution_time(self.t_nocs, self.t_cs, threads)

    @property
    def cs_fraction(self) -> float:
        """Fraction of single-thread time spent in the critical section."""
        total = self.t_nocs + self.t_cs
        if total == 0:
            return 0.0
        return self.t_cs / total

    def optimal_threads(self, max_threads: int | None = None) -> float:
        """Eq. 3 (real-valued)."""
        return optimal_threads_cs(self.t_nocs, self.t_cs, max_threads)

    def predicted_thread_count(self, num_cores: int) -> int:
        """SAT's integer choice for a machine with ``num_cores`` cores."""
        return predicted_thread_count(self.t_nocs, self.t_cs, num_cores)

    def curve(self, max_threads: int) -> list[float]:
        """Execution times for P = 1..max_threads (figure generation)."""
        return [self.execution_time(p) for p in range(1, max_threads + 1)]
