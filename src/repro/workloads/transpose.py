"""Transpose — 2D matrix transpose (CUDA SDK style), BW-limited.

Each thread transposes tiles of the matrix: a 16x16-element tile reads
16 source lines (one per matrix row touched) and writes 16 destination
lines.  Both matrices stream from/to memory exactly once with no reuse,
so the kernel's only scaling limit is the off-chip bus.  The paper
reports BU_1 ~ 12.2 % with BAT predicting 8 threads — the number where
the measured bus utilization first reaches 100 %.

Paper input: 512x8192 matrix.  Repro input: 256x2048 float32 (2 MB) in
16x16 tiles, per-tile copy cost calibrated for BU_1 ~ 12.5 %.  The
transposed matrix is computed for real and verified by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import WorkloadError
from repro.fdt.kernel import DataParallelKernel
from repro.fdt.runner import Application
from repro.isa.ops import Compute, Load, Op, Store
from repro.workloads.base import AddressSpace, Category, WorkloadSpec, register

#: Per-line copy cost: 16 floats with index arithmetic each way.
COPY_INSTR_PER_LINE = 64
#: Ops are immutable values, so each constant one is built once here.
_COPY = Compute(COPY_INSTR_PER_LINE)
_TILE = 16  # elements per tile edge; 16 floats = one cache line


@dataclass(frozen=True, slots=True)
class TransposeParams:
    """Input set for Transpose."""

    rows: int = 256
    cols: int = 2048
    seed: int = 17

    def __post_init__(self) -> None:
        if self.rows % _TILE or self.cols % _TILE:
            raise WorkloadError(f"matrix dimensions must be multiples of {_TILE}")


class TransposeKernel(DataParallelKernel):
    """One iteration = one 16x16 tile (16 line reads + 16 line writes)."""

    name = "transpose"

    def __init__(self, params: TransposeParams,
                 space: AddressSpace | None = None) -> None:
        self.params = params
        space = space or AddressSpace()
        nbytes = params.rows * params.cols * 4
        self._in_base = space.alloc(nbytes)
        self._out_base = space.alloc(nbytes)
        rng = np.random.default_rng(params.seed)
        #: The source matrix (real data).
        self.matrix = rng.standard_normal((params.rows, params.cols)).astype(np.float32)
        #: The destination, filled tile by tile as iterations execute.
        self.result = np.zeros((params.cols, params.rows), dtype=np.float32)
        self._tiles_across = params.cols // _TILE

    @property
    def total_iterations(self) -> int:
        return (self.params.rows // _TILE) * self._tiles_across

    def serial_iteration(self, tile: int) -> Iterator[Op]:
        tr, tc = divmod(tile, self._tiles_across)
        r0, c0 = tr * _TILE, tc * _TILE
        self.result[c0:c0 + _TILE, r0:r0 + _TILE] = (
            self.matrix[r0:r0 + _TILE, c0:c0 + _TILE].T)
        in_row_bytes = self.params.cols * 4
        out_row_bytes = self.params.rows * 4
        # Read one line from each of the tile's 16 source rows...
        for r in range(r0, r0 + _TILE):
            yield Load(self._in_base + r * in_row_bytes + c0 * 4)
            yield _COPY
        # ...and write one line into each of the 16 destination rows.
        for c in range(c0, c0 + _TILE):
            yield _COPY
            yield Store(self._out_base + c * out_row_bytes + r0 * 4)

    def expected_result(self) -> np.ndarray:
        """Ground truth (test oracle)."""
        return self.matrix.T


def build(scale: float = 1.0, seed: int = 17) -> Application:
    """Transpose application; ``scale`` shrinks the column count."""
    cols = max(_TILE * 8, (int(2048 * scale) // _TILE) * _TILE)
    kernel = TransposeKernel(TransposeParams(cols=cols, seed=seed))
    return Application.single(kernel, name="Transpose")


register(WorkloadSpec(
    name="Transpose",
    category=Category.BW_LIMITED,
    description="2D matrix transpose in 16x16 tiles (CUDA SDK)",
    paper_input="512x8192",
    repro_input="256x2048 float32 (2 MB each way)",
    build=build,
))
