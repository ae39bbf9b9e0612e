"""Combined SAT+BAT model (paper Section 6 and Appendix).

When a kernel is exposed to both limiters, the combined execution-time
model stacks them: the parallel part stops shrinking once the bus
saturates (Eq. 6) while the critical-section term keeps growing linearly
(Eq. 1)::

    T_P = T_NoCS / min(P, P_BW)  +  P * T_CS

Eq. 7 picks ``P_FDT = min(P_BW, P_CS, num_cores)``.  The appendix proves
the min is optimal by the two case analyses (Figures 16 and 17); the
:func:`minimizer` here lets tests verify that claim by brute force.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.bat_model import BatModel
from repro.models.sat_model import SatModel


@dataclass(frozen=True, slots=True)
class CombinedModel:
    """Both limiters at once: the appendix's piecewise execution time."""

    sat: SatModel
    bat: BatModel

    def execution_time(self, threads: int) -> float:
        """Parallel part capped by bus saturation, plus serialized CS."""
        if threads < 1:
            raise ValueError("thread count must be >= 1")
        p_bw = self.bat.saturation_threads()
        effective = min(float(threads), p_bw)
        return self.sat.t_nocs / effective + threads * self.sat.t_cs

    def minimizer(self, max_threads: int) -> int:
        """Brute-force argmin over 1..max_threads (ties go to fewer threads).

        Used to check the appendix claim that Eq. 7 finds the optimum.
        """
        best_p = 1
        best_t = self.execution_time(1)
        for p in range(2, max_threads + 1):
            t = self.execution_time(p)
            if t < best_t - 1e-12:
                best_t = t
                best_p = p
        return best_p

    def eq7_choice(self, num_cores: int) -> int:
        """Eq. 7 from the two sub-models: SAT's round-to-nearest and
        BAT's round-up, each already clamped to ``[1, num_cores]``."""
        return min(self.sat.predicted_thread_count(num_cores),
                   self.bat.predicted_thread_count(num_cores))

    def curve(self, max_threads: int) -> list[float]:
        """Execution times for P = 1..max_threads (Figures 16/17 shape)."""
        return [self.execution_time(p) for p in range(1, max_threads + 1)]
