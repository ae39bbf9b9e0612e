"""convert — row-streaming image processing (the unix utility), BW-limited.

The kernel computes one row of the output image at a time and writes it
to a buffer; both reading the input image and writing the output consume
off-chip bandwidth (paper Section 5.3).  Per-row work is independent —
no synchronization — so the kernel is a flat data-parallel loop whose
single scaling limit is the bus.

The paper reports a single-thread bus utilization of ~5.8 %, BAT
predicting 17 threads with the true minimum at 18, and uses convert for
the machine-adaptation experiment (Figure 13: with half the bus
bandwidth the curve saturates at 8 threads, with double it keeps scaling
to 32 — BAT tracks both).

Paper input: 320x240 pixels.  Repro input: 320x240 RGBA rows (1280 B =
20 lines per row); per-line filter cost calibrated for BU_1 ~ 5.9 %.
The pixel transform (gamma-style table map) is computed for real.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import WorkloadError
from repro.fdt.kernel import DataParallelKernel
from repro.fdt.runner import Application
from repro.isa.ops import Compute, Load, Op, Store
from repro.workloads.base import LINE, AddressSpace, Category, WorkloadSpec, register

#: Filter cost per 64-byte pixel group (resample + clamp + pack),
#: calibrated so BU_1 lands near the paper's 5.8 %.
FILTER_INSTR_PER_LINE = 1320
#: Ops are immutable values, so each constant one is built once here.
_FILTER = Compute(FILTER_INSTR_PER_LINE)


@dataclass(frozen=True, slots=True)
class ConvertParams:
    """Input set for convert."""

    width: int = 320
    height: int = 240
    bytes_per_pixel: int = 4
    seed: int = 3

    def __post_init__(self) -> None:
        if self.width * self.bytes_per_pixel < LINE:
            raise WorkloadError("a row must span at least one cache line")
        if self.height < 1:
            raise WorkloadError("image must have at least one row")

    @property
    def row_bytes(self) -> int:
        return self.width * self.bytes_per_pixel


class ConvertKernel(DataParallelKernel):
    """One iteration = one output row (read input row, write output row)."""

    name = "convert"

    def __init__(self, params: ConvertParams,
                 space: AddressSpace | None = None) -> None:
        self.params = params
        space = space or AddressSpace()
        image_bytes = params.row_bytes * params.height
        self._in_base = space.alloc(image_bytes)
        self._out_base = space.alloc(image_bytes)
        rng = np.random.default_rng(params.seed)
        #: The input image as flat bytes (real pixel data).
        self.image = rng.integers(0, 256, size=image_bytes, dtype=np.uint8)
        #: The output image, filled in as iterations execute.
        self.output = np.zeros(image_bytes, dtype=np.uint8)
        # Gamma-style lookup table: the real per-pixel transform.
        self._table = np.clip(
            (np.linspace(0.0, 1.0, 256) ** 0.8 * 255.0), 0, 255
        ).astype(np.uint8)

    #: Loop granularity: each row is processed as two half-row segments,
    #: keeping FDT's peeled training a small fraction of the loop.
    SEGMENTS_PER_ROW = 2

    @property
    def total_iterations(self) -> int:
        return self.params.height * self.SEGMENTS_PER_ROW

    def serial_iteration(self, segment: int) -> Iterator[Op]:
        row_bytes = self.params.row_bytes
        seg_bytes = row_bytes // self.SEGMENTS_PER_ROW
        row, part = divmod(segment, self.SEGMENTS_PER_ROW)
        lo = row * row_bytes + part * seg_bytes
        hi = lo + seg_bytes if part < self.SEGMENTS_PER_ROW - 1 else (row + 1) * row_bytes
        self.output[lo:hi] = self._table[self.image[lo:hi]]
        for off in range(lo, hi, LINE):
            yield Load(self._in_base + off)
            yield _FILTER
            yield Store(self._out_base + off)

    def expected_output(self) -> np.ndarray:
        """Ground truth for the full image (test oracle)."""
        return self._table[self.image]


def build(scale: float = 1.0, seed: int = 3) -> Application:
    """convert application; ``scale`` shrinks the image height."""
    height = max(32, int(240 * scale))
    kernel = ConvertKernel(ConvertParams(height=height, seed=seed))
    return Application.single(kernel, name="convert")


register(WorkloadSpec(
    name="convert",
    category=Category.BW_LIMITED,
    description="Image processing one row at a time (unix convert)",
    paper_input="320x240 pixels",
    repro_input="320x240 RGBA, gamma table map",
    build=build,
))
