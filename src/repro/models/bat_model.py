"""Off-chip-bandwidth execution-time model (paper Section 5.1).

With single-thread bus utilization ``BU_1`` (a fraction in (0, 1]), the
model assumes utilization scales linearly with thread count (Eq. 4)::

    BU_P = P * BU_1

The bus saturates at 100 % utilization, so the saturation thread count is
(Eq. 5)::

    P_BW = 100 / BU_1   (in percent form; 1 / BU_1 as a fraction)

and execution time follows Eq. 6: it scales as ``T_1 / P`` until ``P_BW``
and is flat — governed by bus speed alone — beyond it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def bus_utilization(bu1: float, threads: int) -> float:
    """Eq. 4 with the physical 100 % cap applied."""
    if not 0.0 <= bu1 <= 1.0:
        raise ValueError("BU_1 must be a fraction in [0, 1]")
    if threads < 1:
        raise ValueError("thread count must be >= 1")
    return min(1.0, bu1 * threads)


def saturation_threads(bu1: float, max_threads: int | None = None) -> float:
    """Eq. 5: the real-valued thread count that saturates the bus.

    Returns ``inf`` (or ``max_threads`` when given) if ``bu1`` is zero —
    a workload that never touches the bus cannot become bus limited.
    """
    if not 0.0 <= bu1 <= 1.0:
        raise ValueError("BU_1 must be a fraction in [0, 1]")
    if bu1 == 0.0:
        return float(max_threads) if max_threads is not None else math.inf
    p = 1.0 / bu1
    if max_threads is not None:
        p = min(p, float(max_threads))
    return p


def round_up_clamped(p: float, limit: int) -> int:
    """BAT's rounding rule: ``p`` rounded *up*, clamped to ``[1, limit]``.

    The paper rounds ``P_BW`` up (Section 5.2, Estimation) "because a
    higher number of threads may not hurt performance while a smaller
    number can".  An infinite ``p`` (the bus never saturates) defers to
    ``limit``; the epsilon keeps an exact reciprocal such as
    ``1 / 0.25`` from rounding to 5.
    """
    if limit < 1:
        raise ValueError("num_cores must be >= 1")
    if math.isinf(p):
        return limit
    return max(1, min(limit, math.ceil(p - 1e-9)))


def predicted_thread_count(bu1: float, num_cores: int) -> int:
    """BAT's integer decision: Eq. 5 rounded up, clamped to cores."""
    return round_up_clamped(saturation_threads(bu1), num_cores)


def execution_time(t1: float, bu1: float, threads: int) -> float:
    """Eq. 6: time with ``threads`` threads given single-thread time ``t1``."""
    if t1 < 0:
        raise ValueError("t1 must be non-negative")
    p_bw = saturation_threads(bu1)
    if threads <= p_bw:
        return t1 / threads
    return t1 / p_bw


@dataclass(frozen=True, slots=True)
class BatModel:
    """A fitted instance of the Section 5.1 model.

    Attributes:
        t1: single-thread execution time of the parallel part.
        bu1: single-thread bus utilization as a fraction in [0, 1].
    """

    t1: float
    bu1: float

    def bus_utilization(self, threads: int) -> float:
        """Eq. 4 (capped at 1.0)."""
        return bus_utilization(self.bu1, threads)

    def execution_time(self, threads: int) -> float:
        """Eq. 6."""
        return execution_time(self.t1, self.bu1, threads)

    def saturation_threads(self, max_threads: int | None = None) -> float:
        """Eq. 5 (real-valued)."""
        return saturation_threads(self.bu1, max_threads)

    def predicted_thread_count(self, num_cores: int) -> int:
        """BAT's integer choice for a machine with ``num_cores`` cores."""
        return predicted_thread_count(self.bu1, num_cores)

