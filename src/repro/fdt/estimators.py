"""The estimation stage: training measurements → thread-count decision.

Implements Sections 4.2.2 (SAT), 5.2 (BAT), and 6.1 (combined, Eq. 7).
This module is the single home of that arithmetic
(:func:`estimate_from`) and of its record: :class:`Estimates` is what
the models derive from three measurements, :class:`Decision` is one
policy's use of them — inputs, prediction and choice on one object,
handed as-is to observers, metrics and the trace.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass, fields

from repro.fdt.training import TrainingLog, TrainingSample
from repro.models import bat_model, sat_model


@dataclass(frozen=True, slots=True)
class Estimates:
    """Everything the estimation stage derives from a training log."""

    #: Mean per-iteration critical-section cycles (T_CS).
    t_cs: float
    #: Mean per-iteration cycles outside critical sections (T_NoCS).
    t_nocs: float
    #: Single-thread bus utilization (BU_1) as a fraction.
    bu1: float
    #: Real-valued Eq. 3 optimum (inf when no critical section was seen).
    p_cs_real: float
    #: Real-valued Eq. 5 saturation point (inf when the bus was untouched).
    p_bw_real: float
    #: SAT's integer decision (rounded to nearest, clamped to cores).
    p_cs: int
    #: BAT's integer decision (rounded up, clamped to cores).
    p_bw: int
    #: Eq. 7: min(P_CS, P_BW, cores).
    p_fdt: int

    @property
    def cs_fraction(self) -> float:
        """Critical-section share of single-threaded time."""
        total = self.t_cs + self.t_nocs
        if total == 0:
            return 0.0
        return self.t_cs / total

    def to_dict(self) -> dict:
        """Field dump as strict JSON: the two possibly-infinite reals
        become the strings ``"inf"``/``"-inf"``; everything else (Python
        emits ``repr``-style floats) round-trips bit-identically."""
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and math.isinf(value):
                value = "inf" if value > 0 else "-inf"
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Estimates":
        """Exact inverse of :meth:`to_dict` (only infinities are strings)."""
        return cls(**{name: float(value) if isinstance(value, str) else value
                      for name, value in data.items()})


def estimate_from(t_cs: float, t_nocs: float, bu1: float,
                  slots: int) -> Estimates:
    """Eq. 3, Eq. 5 and Eq. 7 on three measurements.

    Args:
        t_cs: per-iteration critical-section cycles.
        t_nocs: per-iteration cycles outside critical sections.
        bu1: single-thread bus utilization, a fraction.
        slots: thread slots available (the clamp in Eq. 7).

    Returns:
        All intermediate and final values, so reports can show not just
        the decision but the measured T_CS/T_NoCS/BU_1 behind it.
    """
    p_cs = sat_model.predicted_thread_count(t_nocs, t_cs, slots)
    # BAT's cannot-saturate early-out (Section 5.2), re-derived the way
    # training did: if ``BU_1 * slots < 1`` the bus can never saturate
    # and BAT defers to the slot count.
    if bu1 > 0.0 and bu1 * slots >= 1.0:
        p_bw_real = bat_model.saturation_threads(bu1)
        p_bw = bat_model.predicted_thread_count(bu1, slots)
    else:
        p_bw_real = math.inf
        p_bw = slots
    return Estimates(
        t_cs=t_cs,
        t_nocs=t_nocs,
        bu1=bu1,
        p_cs_real=sat_model.optimal_threads_cs(t_nocs, t_cs),
        p_bw_real=p_bw_real,
        p_cs=p_cs,
        p_bw=p_bw,
        p_fdt=max(1, min(p_cs, p_bw, slots)),
    )


def estimate(log: TrainingLog, num_cores: int) -> Estimates:
    """Run the estimation stage on a completed training log."""
    return estimate_from(log.mean_cs_cycles(), log.mean_nocs_cycles(),
                         log.mean_bus_utilization(), num_cores)


class FdtMode(enum.Enum):
    """Which limiter(s) the FDT instance watches."""

    SAT = "sat"
    BAT = "bat"
    COMBINED = "sat+bat"

    def pick(self, estimates: Estimates) -> int:
        """The mode's thread count: Eq. 3, Eq. 5, or Eq. 7's minimum."""
        if self is FdtMode.SAT:
            return estimates.p_cs
        if self is FdtMode.BAT:
            return estimates.p_bw
        return estimates.p_fdt


@dataclass(frozen=True, slots=True)
class Decision:
    """One FDT thread-count decision with its complete provenance.

    Carries the raw training samples, everything the estimation stage
    derived from them and the chosen thread count — enough to re-derive
    the decision from the record alone (:meth:`replay`).
    """

    kernel_name: str
    policy_name: str
    #: :class:`FdtMode` value: ``"sat"`` | ``"bat"`` | ``"sat+bat"``.
    mode: str
    #: Hardware thread slots (the clamp in Eq. 7).
    num_slots: int
    total_iterations: int
    stop_reason: str
    #: The raw per-iteration training measurements.
    samples: tuple[TrainingSample, ...]
    estimates: Estimates
    #: What the policy actually ran the execution phase with.
    chosen_threads: int
    #: Machine cycle at which the decision was taken.
    decided_at: int

    @property
    def trained_iterations(self) -> int:
        return len(self.samples)

    def to_dict(self) -> dict:
        """Flat strict-JSON form (``decisions.json``, Perfetto args)."""
        return {
            "kernel_name": self.kernel_name,
            "policy_name": self.policy_name,
            "mode": self.mode,
            "num_slots": self.num_slots,
            "total_iterations": self.total_iterations,
            "trained_iterations": self.trained_iterations,
            "stop_reason": self.stop_reason,
            "samples": [asdict(s) for s in self.samples],
            **self.estimates.to_dict(),
            "chosen_threads": self.chosen_threads,
            "decided_at": self.decided_at,
        }
