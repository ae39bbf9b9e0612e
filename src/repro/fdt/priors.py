"""Static FDT priors: SAT/BAT inputs derived before any simulation.

The static analyzer (:mod:`repro.check.static`) summarizes a kernel's
single-thread op stream under an abstract cost model and splits the
estimated cycles into critical-section and parallel shares, plus an
estimated bus occupancy.  Feeding those three numbers through the very
same Eq. 3 / Eq. 5 / Eq. 7 code the runtime uses yields a *prior* — the
thread count FDT would pick if the abstract model were the machine.

Priors are compared against measured training estimates
(:func:`measure_estimates` runs the real instrumented training loop) so
``repro check`` can report static-vs-measured agreement.  The
abstract model ignores contention, pipelining, and cache capacity, so
the serial fraction is a bounded overestimate: across the shipped
Table 2 workloads the static ``cs_fraction`` lands within a relative
error of :data:`CS_FRACTION_RTOL` of the SAT-measured value (asserted
by ``tests/test_static_check.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.fdt.estimators import Estimates, estimate, estimate_from
from repro.fdt.kernel import Kernel
from repro.fdt.policies import train_kernel
from repro.fdt.training import TrainingConfig
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine

#: Documented tolerance of the static serial-fraction prior relative to
#: the SAT-measured value, for workloads with a non-trivial critical
#: section.  The abstract cost model has no contention or pipeline
#: effects, so this is loose by design; it exists to catch the prior
#: drifting into a different regime, not to certify two digits.
CS_FRACTION_RTOL = 0.5


def estimates_view(estimates: Estimates) -> dict[str, Any]:
    """How ``repro check`` shows an estimate, prior or measured:
    the three inputs, the serial fraction and the three decisions."""
    return {
        "t_cs": estimates.t_cs,
        "t_nocs": estimates.t_nocs,
        "bu1": estimates.bu1,
        "cs_fraction": estimates.cs_fraction,
        "p_cs": estimates.p_cs,
        "p_bw": estimates.p_bw,
        "p_fdt": estimates.p_fdt,
    }


@dataclass(frozen=True, slots=True)
class StaticPriors:
    """The estimation stage run on a static team-of-one summary."""

    kernel: str
    #: Eq. 3 / 5 / 7 on the estimated T_CS, T_NoCS and BU_1.
    estimates: Estimates
    #: Distinct cache lines the single thread touched (working set).
    footprint_lines: int
    #: The same working set in bytes.
    footprint_bytes: int
    #: Estimated bytes transferred per retired instruction (cold lines
    #: over instructions — a bandwidth-intensity fingerprint).
    bytes_per_instruction: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "kernel": self.kernel,
            **estimates_view(self.estimates),
            "footprint_lines": self.footprint_lines,
            "footprint_bytes": self.footprint_bytes,
            "bytes_per_instruction": self.bytes_per_instruction,
        }

    def agreement(self, measured: Estimates) -> "PriorAgreement":
        """Compare this prior against measured training estimates."""
        return PriorAgreement(self.kernel, self.estimates, measured)


@dataclass(frozen=True, slots=True)
class PriorAgreement:
    """How a static prior compares to the measured training estimate."""

    kernel: str
    prior: Estimates
    measured: Estimates

    @property
    def cs_fraction_rel_error(self) -> float:
        """|static - measured| / measured (inf when measured is zero
        but the prior is not)."""
        return _rel_error(self.prior.cs_fraction, self.measured.cs_fraction)

    @property
    def bu1_rel_error(self) -> float:
        return _rel_error(self.prior.bu1, self.measured.bu1)

    @property
    def within_tolerance(self) -> bool:
        """True when the serial-fraction prior is inside
        :data:`CS_FRACTION_RTOL` of the measured value (vacuously true
        when both round to no critical section at all)."""
        if self.measured.cs_fraction == 0.0:
            return self.prior.cs_fraction == 0.0
        return self.cs_fraction_rel_error <= CS_FRACTION_RTOL

    def to_dict(self) -> dict[str, Any]:
        return {
            "kernel": self.kernel,
            "static_cs_fraction": self.prior.cs_fraction,
            "measured_cs_fraction": self.measured.cs_fraction,
            "cs_fraction_rel_error": _finite(self.cs_fraction_rel_error),
            "static_bu1": self.prior.bu1,
            "measured_bu1": self.measured.bu1,
            "bu1_rel_error": _finite(self.bu1_rel_error),
            "static_p_fdt": self.prior.p_fdt,
            "measured_p_fdt": self.measured.p_fdt,
            "within_tolerance": self.within_tolerance,
        }


def _rel_error(static: float, measured: float) -> float:
    if measured == 0.0:
        return 0.0 if static == 0.0 else math.inf
    return abs(static - measured) / measured


def _finite(x: float) -> float | None:
    """JSON-friendly: None instead of inf/nan."""
    return x if math.isfinite(x) else None


def derive_priors(kernel_name: str, iterations: int,
                  est_cycles: int, est_cs_cycles: int, est_bus_busy: int,
                  instructions: int, footprint_lines: int,
                  config: MachineConfig) -> StaticPriors:
    """Turn a static team-of-one summary into SAT/BAT priors.

    Args:
        kernel_name: name for the report.
        iterations: the kernel's total iteration count (per-iteration
            T_CS/T_NoCS priors divide by this, mirroring training).
        est_cycles: abstract total cycles of the single-thread stream.
        est_cs_cycles: abstract cycles spent with at least one lock held.
        est_bus_busy: abstract bus-occupied cycles (cold line transfers).
        instructions: dynamic instructions in the stream.
        footprint_lines: distinct cache lines touched.
        config: machine whose core count clamps the decisions and whose
            line size converts the footprint to bytes.
    """
    iters = max(1, iterations)
    bu1 = min(1.0, est_bus_busy / est_cycles) if est_cycles > 0 else 0.0
    # FDT's clamp is the thread-slot count (see policies.train_kernel);
    # the prior must use the same clamp or p_fdt agreement is meaningless.
    return StaticPriors(
        kernel=kernel_name,
        estimates=estimate_from(
            est_cs_cycles / iters,
            max(0, est_cycles - est_cs_cycles) / iters,
            bu1, config.num_thread_slots),
        footprint_lines=footprint_lines,
        footprint_bytes=footprint_lines * config.line_bytes,
        bytes_per_instruction=(footprint_lines * config.line_bytes
                               / instructions) if instructions else 0.0,
    )


def measure_estimates(kernel: Kernel,
                      config: MachineConfig | None = None) -> Estimates:
    """Run the real instrumented training loop for one kernel.

    A fresh machine runs the policies' own training stage
    (:func:`~repro.fdt.policies.train_kernel`) and the estimation stage
    turns the log into :class:`~repro.fdt.estimators.Estimates`.
    Used by ``repro check`` to report prior-vs-measured
    agreement.
    """
    cfg = config or MachineConfig.asplos08_baseline()
    with Machine(cfg) as machine:
        log, _ = train_kernel(machine, kernel, TrainingConfig())
    return estimate(log, cfg.num_thread_slots)
