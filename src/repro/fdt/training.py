"""FDT training: the instrumented, single-threaded peeled loop.

The paper's compiler splits the kernel with loop peeling and inserts
cycle-counter reads at critical-section entry/exit plus bus-busy-counter
reads per iteration.  :func:`instrumented_training_program` is the source-
transformation analogue: it wraps a kernel's serial iterations, injects
:class:`~repro.isa.ops.ReadCounter` ops at the same places, and records a
:class:`TrainingSample` per iteration into a :class:`TrainingLog`, which
applies the paper's three termination rules *during* the simulated run:

1. SAT stability — stop once ``T_CS / T_NoCS`` has been stable within 5 %
   for three consecutive iterations (Section 4.2.1);
2. BAT early-out — after 10 000 cycles, stop if the average utilization
   times the core count cannot reach 100 % (Section 5.2);
3. hard cap — at most 1 % of the loop's iterations (both sections).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.errors import TrainingError
from repro.fdt.kernel import Kernel
from repro.isa.ops import CounterKind, Lock, Op, ReadCounter, Unlock

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.sim.observer import SimObserver


@dataclass(frozen=True, slots=True)
class TrainingSample:
    """Measurements from one training iteration."""

    iteration: int
    total_cycles: int
    cs_cycles: int
    bus_busy_cycles: int

    @property
    def nocs_cycles(self) -> int:
        """Cycles outside critical sections (T_NoCS share)."""
        return max(0, self.total_cycles - self.cs_cycles)

    @property
    def cs_ratio(self) -> float:
        """T_CS / T_NoCS for the stability rule (inf when all CS)."""
        if self.nocs_cycles == 0:
            return float("inf") if self.cs_cycles else 0.0
        return self.cs_cycles / self.nocs_cycles


@dataclass(frozen=True, slots=True)
class TrainingConfig:
    """Termination-rule parameters (paper defaults)."""

    #: SAT stability window: consecutive iterations required.
    stability_window: int = 3
    #: SAT stability tolerance on the T_CS/T_NoCS ratio.
    stability_tolerance: float = 0.05
    #: Hard cap as a fraction of total iterations.
    max_iteration_fraction: float = 0.01
    #: Floor on the cap so scaled-down inputs still allow the stability
    #: window to operate (at paper-scale inputs 1 % is far above this).
    min_iterations: int = 5
    #: BAT early-out: minimum training cycles before the cannot-saturate test.
    bat_early_out_cycles: int = 10_000
    #: Which limiters this training session must satisfy.
    need_sat: bool = True
    need_bat: bool = True

    def max_training_iterations(self, total_iterations: int) -> int:
        """The 1 %-of-iterations cap with the scaled-input floor applied.

        Training can never consume the whole loop: the cap also stays
        below half the iterations so an execution phase always remains.
        """
        cap = max(self.min_iterations,
                  int(total_iterations * self.max_iteration_fraction))
        return max(1, min(cap, total_iterations // 2 or 1))


@dataclass(slots=True)
class TrainingLog:
    """Accumulated samples plus live termination-rule evaluation."""

    config: TrainingConfig
    total_iterations: int
    num_cores: int
    samples: list[TrainingSample] = field(default_factory=list)
    stop_reason: str = ""
    #: Kernel this log trains (labels trace marks; "" when untraced).
    kernel_name: str = ""
    #: Observer (repro.sim.observer); never affects termination rules.
    observer: "SimObserver | None" = None

    # -- recording (called from inside the simulated program) ----------------

    def record(self, sample: TrainingSample) -> bool:
        """Add a sample; return True when training should terminate."""
        self.samples.append(sample)
        if self.observer is not None:
            self.observer.on_training_sample(self.kernel_name, sample)
        if len(self.samples) >= self.config.max_training_iterations(
                self.total_iterations):
            self.stop_reason = "iteration-cap"
            return True
        sat_done = not self.config.need_sat or self._sat_stable()
        bat_done = not self.config.need_bat or self._bat_resolved()
        if sat_done and bat_done:
            self.stop_reason = "measurements-stable"
            return True
        return False

    def _sat_stable(self) -> bool:
        """Stability rule: ratio within tolerance for the last W samples."""
        window = self.config.stability_window
        if len(self.samples) < window:
            return False
        ratios = [s.cs_ratio for s in self.samples[-window:]]
        if any(r == float("inf") for r in ratios):
            return False
        center = sum(ratios) / window
        if center == 0.0:
            return all(r == 0.0 for r in ratios)
        tol = self.config.stability_tolerance
        return all(abs(r - center) <= tol * center for r in ratios)

    def _bat_resolved(self) -> bool:
        """BAT's early-out: enough cycles seen and saturation ruled out.

        The positive case (the bus *can* saturate) keeps training until
        the SAT rules or the iteration cap stop it, as in the paper.
        """
        if self.trained_cycles < self.config.bat_early_out_cycles:
            return False
        return self.mean_bus_utilization() * self.num_cores < 1.0

    # -- aggregate measurements -----------------------------------------------

    @property
    def trained_cycles(self) -> int:
        return sum(s.total_cycles for s in self.samples)

    @property
    def trained_iterations(self) -> int:
        return len(self.samples)

    def mean_cs_cycles(self) -> float:
        """Average T_CS per iteration."""
        self._require_samples()
        return sum(s.cs_cycles for s in self.samples) / len(self.samples)

    def mean_nocs_cycles(self) -> float:
        """Average T_NoCS per iteration."""
        self._require_samples()
        return sum(s.nocs_cycles for s in self.samples) / len(self.samples)

    def mean_bus_utilization(self) -> float:
        """BU_1: bus busy cycles over total cycles across training."""
        self._require_samples()
        total = self.trained_cycles
        if total == 0:
            return 0.0
        busy = sum(s.bus_busy_cycles for s in self.samples)
        return min(1.0, busy / total)

    def _require_samples(self) -> None:
        if not self.samples:
            raise TrainingError("training produced no samples")


def instrumented_training_program(kernel: Kernel, iterations: range,
                                  log: TrainingLog) -> Iterator[Op]:
    """The peeled, instrumented training loop (runs single-threaded).

    Wraps each serial iteration of ``kernel`` with counter reads:

    * cycle counter at iteration start/end (total time per iteration);
    * bus-busy counter at iteration start/end (BAT's BU_1 numerator);
    * cycle counter at outermost critical-section entry and exit (SAT's
      T_CS), exactly the paper's Section 4.2.1 instrumentation.

    Stops early when :meth:`TrainingLog.record` says so.
    """
    for i in iterations:
        t_start = yield ReadCounter(CounterKind.CYCLES)
        bus_start = yield ReadCounter(CounterKind.BUS_BUSY_CYCLES)
        cs_cycles = 0
        depth = 0
        cs_entry = 0
        for op in kernel.serial_iteration(i):
            if type(op) is Lock:
                if depth == 0:
                    cs_entry = yield ReadCounter(CounterKind.CYCLES)
                depth += 1
                yield op
            elif type(op) is Unlock:
                yield op
                depth -= 1
                if depth == 0:
                    cs_exit = yield ReadCounter(CounterKind.CYCLES)
                    cs_cycles += cs_exit - cs_entry
            else:
                yield op
        t_end = yield ReadCounter(CounterKind.CYCLES)
        bus_end = yield ReadCounter(CounterKind.BUS_BUSY_CYCLES)
        sample = TrainingSample(
            iteration=i,
            total_cycles=t_end - t_start,
            cs_cycles=cs_cycles,
            bus_busy_cycles=bus_end - bus_start,
        )
        if log.record(sample):
            return
