"""BT — block-tridiagonal fluid-dynamics solver (NAS BT), scalable.

BT on its small 12^3 grid is intensely compute-dense: each cell update
evaluates 5x5 block operations, so the working set fits in the caches
and neither critical sections nor bus bandwidth limit scaling.  FDT must
*keep* all 32 threads here (paper Section 6.2: "FDT retains the
performance benefits of more threads by always choosing 32").

One FDT iteration is one grid plane of one time step (the parallelized
inner loop), giving 720 fine-grained iterations at default scale so
training consumes well under 1 %.  Every step sweeps the same planes, so
each (plane, slab, thread, team) op tuple is built once and replayed.

The "solution" is a real Jacobi-style relaxation over the grid, verified
by tests to reduce the residual monotonically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.fdt.kernel import OpTable, TeamParallelKernel
from repro.fdt.runner import Application
from repro.isa.ops import BarrierWait, Load, Op, Store
from repro.runtime.parallel import static_chunk, static_chunks
from repro.workloads.base import LINE, AddressSpace, Category, WorkloadSpec, compute_ops, register

#: Per-cell cost of the 5x5 block-tridiagonal update (BT's block solves
#: run to thousands of flops per cell; 1200 keeps even the cold-cache
#: training phase clearly below bus saturation, as on the paper's runs).
CELL_INSTR = 1200
_CELL_BYTES = 40  # five doubles of state per cell


@dataclass(frozen=True, slots=True)
class BtParams:
    """Input set for BT."""

    grid: int = 12
    time_steps: int = 60
    seed: int = 23

    def __post_init__(self) -> None:
        if self.grid < 3:
            raise WorkloadError("BT grid must be at least 3^3")
        if self.time_steps < 1:
            raise WorkloadError("BT needs at least one time step")


class BtKernel(TeamParallelKernel):
    """One iteration = one grid plane of one time step."""

    name = "bt"

    def __init__(self, params: BtParams,
                 space: AddressSpace | None = None) -> None:
        self.params = params
        space = space or AddressSpace()
        cells = params.grid ** 3
        self._grid_base = space.alloc(cells * _CELL_BYTES)
        rng = np.random.default_rng(params.seed)
        #: The real field being relaxed (one scalar per cell stands in
        #: for the 5-vector; the op stream charges the full block cost).
        self.field = rng.standard_normal((params.grid,) * 3)
        #: Residual after each completed sweep (should shrink).
        self.residuals: list[float] = []
        self._slabs = static_chunks(params.grid ** 2, self.SLABS_PER_PLANE)
        self._ops = OpTable(self._plane_ops)

    #: Loop granularity: each plane is swept as two half-plane slabs,
    #: keeping FDT's peeled training a tiny fraction of the run.
    SLABS_PER_PLANE = 2

    @property
    def total_iterations(self) -> int:
        return self.params.time_steps * self.params.grid * self.SLABS_PER_PLANE

    def team_iteration(self, iteration: int, thread_id: int,
                       num_threads: int) -> tuple[Op, ...]:
        g = self.params.grid
        plane_iter, slab = divmod(iteration, self.SLABS_PER_PLANE)
        plane = plane_iter % g
        if thread_id == 0 and slab == 0 and 0 < plane < g - 1:
            # Real relaxation of the interior plane (Jacobi in z).
            before = float(np.abs(self.field[plane]).sum())
            self.field[plane] = (self.field[plane - 1]
                                 + 2.0 * self.field[plane]
                                 + self.field[plane + 1]) / 4.0
            self.residuals.append(before)
        return self._ops[plane, slab, thread_id, num_threads]

    def _plane_ops(self, key: tuple[int, int, int, int]) -> list[Op]:
        """A thread's ops for one (plane, slab, thread, team) shape."""
        plane, slab, thread_id, num_threads = key
        slab_cells = self._slabs[slab]
        chunk = static_chunk(len(slab_cells), num_threads, thread_id,
                             slab_cells.start)
        plane_base = self._grid_base + plane * self.params.grid ** 2 * _CELL_BYTES
        # Touch this thread's cells (line-granular) and pay the block cost.
        lo = plane_base + chunk.start * _CELL_BYTES
        hi = plane_base + chunk.stop * _CELL_BYTES
        ops: list[Op] = [Load(addr) for addr in
                         range(lo // LINE * LINE, max(lo, hi - 1) + 1, LINE)]
        ops += compute_ops(len(chunk) * CELL_INSTR)
        if len(chunk):
            ops.append(Store(lo // LINE * LINE))
        ops.append(BarrierWait(0))  # the plane barrier
        return ops


def build(scale: float = 1.0, seed: int = 23) -> Application:
    """BT application; ``scale`` shrinks the time-step count."""
    steps = max(10, int(60 * scale))
    kernel = BtKernel(BtParams(time_steps=steps, seed=seed))
    return Application.single(kernel, name="BT")


register(WorkloadSpec(
    name="BT",
    category=Category.SCALABLE,
    description="Block-tridiagonal CFD solver (NAS BT)",
    paper_input="12x12x12",
    repro_input="12^3 grid, 60 time steps",
    build=build,
))
