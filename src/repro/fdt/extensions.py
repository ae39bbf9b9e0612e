"""Extensions the paper's Future Work section (§9) sketches.

* :class:`CalibratedBatPolicy` — "Our model for bandwidth utilization
  assumes that bandwidth requirement increases linearly with the number
  of threads ... More comprehensive models that take these effects into
  account can be developed."  This policy trains at *two* team sizes
  (1 and a small probe team), fits the sub-linear utilization curve
  ``BU(P) = BU_1 * P / (1 + beta * (P - 1))``, and solves it for
  saturation instead of assuming linearity.
* :class:`TwoPhaseSatPolicy` — addresses the other measured bias: a
  critical section timed under *no contention* (single-threaded
  training) understates its contended cost (lock handoff plus line
  ping-pong).  The policy refines SAT's pick with one probe run at the
  predicted count, re-measuring the effective CS time from lock-hold
  statistics.

Both are strictly run-time techniques in FDT's spirit: a little more
training buys a better model, no offline profile.  Each is an
:class:`~repro.fdt.policies.FdtPolicy` that overrides only the *choose*
step of the Figure 5 pipeline — train, estimate, announce and execute
are the paper's — and each is registered in
:data:`~repro.fdt.policies.POLICIES`, so ``--policy sat-two-phase`` and
``--policy bat-calibrated-4`` reach the CLI, the job cache and the
server like the paper's own modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import TrainingError
from repro.fdt.estimators import Estimates
from repro.fdt.kernel import Kernel
from repro.fdt.policies import POLICIES, FdtMode, FdtPolicy
from repro.fdt.training import TrainingLog
from repro.models import bat_model, sat_model
from repro.sim.machine import Machine

#: Team size of :class:`CalibratedBatPolicy`'s second measurement.
PROBE_THREADS = 4


@dataclass(frozen=True, slots=True)
class SubLinearBandwidthModel:
    """``BU(P) = bu1 * P / (1 + beta * (P - 1))`` — Eq. 4 with a
    contention-damping term fitted from a second measurement.

    ``beta = 0`` recovers the paper's linear model exactly.
    """

    bu1: float
    beta: float

    def utilization(self, threads: int) -> float:
        if threads < 1:
            raise ValueError("thread count must be >= 1")
        u = self.bu1 * threads / (1.0 + self.beta * (threads - 1))
        return min(1.0, u)

    def saturation_threads(self) -> float:
        """Smallest real P with ``BU(P) = 1`` (inf if unreachable)."""
        if self.bu1 <= 0:
            return math.inf
        denominator = self.bu1 - self.beta
        if denominator <= 0:
            return math.inf  # utilization asymptotes below 100%
        return (1.0 - self.beta) / denominator

    def predicted_thread_count(self, slots: int) -> int:
        return bat_model.round_up_clamped(self.saturation_threads(), slots)

    @staticmethod
    def fit(bu1: float, probe_threads: int,
            probe_utilization: float) -> "SubLinearBandwidthModel":
        """Fit beta from one extra measurement at ``probe_threads``.

        Solving ``u_p = bu1 * P / (1 + beta (P - 1))`` for beta; a probe
        at or above linearity clamps beta at 0 (never super-linear).
        """
        if probe_threads < 2:
            raise TrainingError("probe team must have at least 2 threads")
        if probe_utilization <= 0:
            return SubLinearBandwidthModel(bu1=bu1, beta=0.0)
        beta = (bu1 * probe_threads / probe_utilization - 1.0) / (
            probe_threads - 1)
        return SubLinearBandwidthModel(bu1=bu1, beta=max(0.0, beta))


class CalibratedBatPolicy(FdtPolicy):
    """BAT with a two-point, sub-linear bandwidth model (§9 extension).

    Training is the paper's single-threaded instrumented loop.  The
    choose step then runs a few more iterations on a small probe team
    (:data:`PROBE_THREADS`) measuring aggregate bus utilization; the two
    points fit :class:`SubLinearBandwidthModel`, whose saturation point
    replaces Eq. 5.
    """

    def __init__(self) -> None:
        super().__init__(FdtMode.BAT)
        self.name = f"bat-calibrated-{PROBE_THREADS}"

    def choose(self, machine: Machine, kernel: Kernel, log: TrainingLog,
               estimates: Estimates) -> tuple[int, int, int]:
        slots = machine.config.num_thread_slots
        consumed = log.trained_iterations
        left = kernel.total_iterations - consumed
        probe_threads = min(PROBE_THREADS, slots)
        if probe_threads < 2 or left < 1:
            return super().choose(machine, kernel, log, estimates)

        # The probe must be long enough that spawn overhead and tail
        # imbalance do not depress the measured utilization (several
        # iterations per probe thread).
        probe_iters = min(left, max(consumed, probe_threads * 8))
        probe_start = machine.snapshot()
        region = machine.run_parallel(kernel.factories(
            range(consumed, consumed + probe_iters), probe_threads))
        probe = machine.result_since(probe_start)

        model = SubLinearBandwidthModel.fit(
            bu1=estimates.bu1, probe_threads=probe_threads,
            probe_utilization=probe.bus_utilization)
        can_saturate = (model.utilization(slots) >= 0.999
                        or model.saturation_threads() <= slots)
        threads = (model.predicted_thread_count(slots) if can_saturate
                   else slots)
        return threads, probe_iters, region.cycles


class TwoPhaseSatPolicy(FdtPolicy):
    """SAT refined by a contended probe (§9-adjacent extension).

    Training and the first guess are the paper's SAT.  The choose step
    runs a slice at that guess and re-derives the *contended* per-entry
    critical-section time from the lock manager's hold statistics (hold
    time includes line ping-pong that single-threaded training cannot
    see), then re-solves Eq. 3 with it.
    """

    def __init__(self) -> None:
        super().__init__(FdtMode.SAT)
        self.name = "sat-two-phase"

    def choose(self, machine: Machine, kernel: Kernel, log: TrainingLog,
               estimates: Estimates) -> tuple[int, int, int]:
        first_guess = self.decide(estimates)
        consumed = log.trained_iterations
        probe_iters = min(consumed, kernel.total_iterations - consumed)
        if probe_iters < 1:
            return first_guess, 0, 0

        # Probe at the first guess, measuring contended CS time per
        # acquisition from the lock manager.
        stats = machine.locks.stats
        holds_before = stats.total_hold_cycles
        acqs_before = stats.acquisitions
        region = machine.run_parallel(kernel.factories(
            range(consumed, consumed + probe_iters), first_guess))
        acqs = stats.acquisitions - acqs_before
        holds = stats.total_hold_cycles - holds_before

        threads = first_guess
        if acqs and estimates.t_cs > 0:
            # Effective per-iteration CS time under contention; the
            # serial training measured `cs_per_acq` locks per iteration.
            acq_per_iter = acqs / (probe_iters * first_guess)
            contended_t_cs = (holds / acqs) * max(1.0, acq_per_iter)
            threads = sat_model.predicted_thread_count(
                estimates.t_nocs, max(estimates.t_cs, contended_t_cs),
                machine.config.num_thread_slots)
        return threads, probe_iters, region.cycles


POLICIES["sat-two-phase"] = TwoPhaseSatPolicy
POLICIES[f"bat-calibrated-{PROBE_THREADS}"] = CalibratedBatPolicy
