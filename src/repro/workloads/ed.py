"""ED — Euclidean distance, the paper's flagship bandwidth-limited kernel.

``EuclideanDistance(Point A)`` (paper Figure 3): a data-parallel
reduction ``sum += A[i] * A[i]`` over an N-dimensional point.  Threads
need no synchronization (each accumulates a private partial sum); the
array streams from memory once, so the off-chip bus is the only shared
resource and performance saturates when it does (paper Figure 4).

Paper input: N = 100M.  Repro input: N = 1.28M doubles (10 MB — larger
than the 8 MB L3, so every line is a cold miss exactly as at paper
scale).  The paper reports a miss every ~225 cycles and a single-thread
bus utilization of 14.3 %; the per-line compute cost below is calibrated
to land there.

The partial sums are computed for real over a deterministic array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import WorkloadError
from repro.fdt.kernel import DataParallelKernel
from repro.fdt.runner import Application
from repro.isa.ops import Compute, Load, Op
from repro.workloads.base import (
    LINE,
    AddressSpace,
    Category,
    WorkloadSpec,
    register,
)

#: 8 doubles per 64-B line; ~4 instructions per element (load, multiply,
#: add, loop) -> 32 instructions = 16 cycles of compute per line.
ED_INSTR_PER_LINE = 32
#: Ops are immutable values, so each constant one is built once here.
_SQUARE_SUM = Compute(ED_INSTR_PER_LINE)
#: Loop-block granularity: one FDT "iteration" covers this many lines.
LINES_PER_BLOCK = 64


@dataclass(frozen=True, slots=True)
class EdParams:
    """Input set for ED."""

    n_elements: int = 1_280_000  # doubles; 10 MB > the 8 MB L3
    seed: int = 7

    def __post_init__(self) -> None:
        if self.n_elements < LINES_PER_BLOCK * (LINE // 8):
            raise WorkloadError("ED input must cover at least one block")


class EdKernel(DataParallelKernel):
    """The data-parallel squared-sum loop, blocked for FDT training."""

    name = "ed"

    def __init__(self, params: EdParams,
                 space: AddressSpace | None = None) -> None:
        self.params = params
        space = space or AddressSpace()
        self._n_lines = (params.n_elements * 8 + LINE - 1) // LINE
        self._base = space.alloc(self._n_lines * LINE)
        rng = np.random.default_rng(params.seed)
        #: The point's coordinates (real data for the real reduction).
        self.values = rng.standard_normal(params.n_elements)
        #: Partial sums accumulated per executed block.
        self.partial_sum = 0.0

    @property
    def total_iterations(self) -> int:
        return self._n_lines // LINES_PER_BLOCK

    def serial_iteration(self, block: int) -> Iterator[Op]:
        first_line = block * LINES_PER_BLOCK
        lo = first_line * (LINE // 8)
        hi = min(self.params.n_elements, (first_line + LINES_PER_BLOCK) * (LINE // 8))
        self.partial_sum += float(np.square(self.values[lo:hi]).sum())
        for line in range(first_line, first_line + LINES_PER_BLOCK):
            yield Load(self._base + line * LINE)
            yield _SQUARE_SUM

    def distance(self) -> float:
        """sqrt of the accumulated partial sums (the kernel's output)."""
        return float(np.sqrt(self.partial_sum))

    def expected_distance(self) -> float:
        """Ground truth over the whole input (test oracle)."""
        return float(np.sqrt(np.square(self.values).sum()))


def build(scale: float = 1.0, seed: int = 7) -> Application:
    """ED application; ``scale`` shrinks the array (BU_1 is unchanged)."""
    n = max(LINES_PER_BLOCK * 8 * 4, int(1_280_000 * scale))
    kernel = EdKernel(EdParams(n_elements=n, seed=seed))
    return Application.single(kernel, name="ED")


register(WorkloadSpec(
    name="ED",
    category=Category.BW_LIMITED,
    description="Euclidean distance of an N-dimensional point (Figure 3)",
    paper_input="n = 100M",
    repro_input="n = 1.28M doubles (10 MB, exceeds L3)",
    build=build,
))
