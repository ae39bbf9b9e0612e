"""MG — multigrid V-cycle solver (NAS MG), scalable.

Smoothing sweeps over a hierarchy of grids: the V-cycle descends from
the fine grid to the coarsest and back, one sweep per level.  Grids are
L3-resident after first touch and the stencil is compute-dense, so the
kernel keeps scaling to 32 threads; the varying per-level sweep sizes
also exercise FDT's stability rule on a kernel whose iterations are
*not* uniform.

One FDT iteration is one plane-slab of the current sweep, so training
stays a small fraction of the run.  Every V-cycle sweeps the same
planes, so each (level, plane, slab, thread, team) op tuple is built
once and replayed.

Paper input: 64^3.  Repro input: 32^3 fine grid, 4 levels, 6 V-cycles.
The smoother really runs (Jacobi on the level's field) and tests check
the residual decreases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import WorkloadError
from repro.fdt.kernel import OpTable, TeamParallelKernel
from repro.fdt.runner import Application
from repro.isa.ops import BarrierWait, Compute, Load, Op, Store
from repro.runtime.parallel import ChunkTable, static_chunk, static_chunks, team_chunks
from repro.workloads.base import LINE, AddressSpace, Category, WorkloadSpec, register

#: 27-point stencil cost per line of 8 doubles.
STENCIL_INSTR_PER_LINE = 260
_SWEEP_BARRIER = 0
#: Ops are immutable values, so each constant one is built once here.
_STENCIL = Compute(STENCIL_INSTR_PER_LINE)
_INIT = Compute(40)  # zran3/zero3 cost of filling one line
_WAIT_SWEEP = BarrierWait(_SWEEP_BARRIER)


@dataclass(frozen=True, slots=True)
class MgParams:
    """Input set for MG."""

    fine_grid: int = 32
    levels: int = 4
    v_cycles: int = 6
    seed: int = 31

    def __post_init__(self) -> None:
        if self.fine_grid >> (self.levels - 1) < 4:
            raise WorkloadError("coarsest MG grid would be below 4^3")
        if self.v_cycles < 1:
            raise WorkloadError("MG needs at least one V-cycle")


def _v_cycle_levels(levels: int) -> list[int]:
    """Level sequence of one V-cycle: fine -> coarse -> fine."""
    down = list(range(levels))
    up = list(range(levels - 2, -1, -1))
    return down + up


class MgKernel(TeamParallelKernel):
    """One iteration = one plane-slab of one level sweep."""

    name = "mg"

    def __init__(self, params: MgParams,
                 space: AddressSpace | None = None) -> None:
        self.params = params
        space = space or AddressSpace()
        self.grids = []
        self._bases = []
        self._slabs: list[list[range]] = []  # per level: a plane's 2 slabs
        self._ops = OpTable(self._slab_ops)
        rng = np.random.default_rng(params.seed)
        for lvl in range(params.levels):
            n = params.fine_grid >> lvl
            self.grids.append(rng.standard_normal((n, n, n)))
            self._bases.append(space.alloc(n * n * n * 8))
            self._slabs.append(static_chunks(n * n * 8 // LINE, 2))
        # Flatten every V-cycle into (level, plane, slab) iterations —
        # each plane is swept as two half-plane slabs so the peeled
        # training loop is a tiny fraction of the run.
        self._schedule: list[tuple[int, int, int]] = []
        for _cycle in range(params.v_cycles):
            for lvl in _v_cycle_levels(params.levels):
                n = params.fine_grid >> lvl
                for plane in range(n):
                    for slab in (0, 1):
                        self._schedule.append((lvl, plane, slab))
        #: L1 norm of the fine grid after each full sweep (test oracle).
        self.norms: list[float] = []

    @property
    def total_iterations(self) -> int:
        return len(self._schedule)

    def team_iteration(self, iteration: int, thread_id: int,
                       num_threads: int) -> tuple[Op, ...]:
        lvl, plane, slab = self._schedule[iteration]
        grid = self.grids[lvl]
        n = grid.shape[0]
        if thread_id == 0 and slab == 0 and 0 < plane < n - 1:
            grid[plane] = (grid[plane - 1] + 2.0 * grid[plane]
                           + grid[plane + 1]) / 4.0
            if lvl == 0 and plane == n - 2:
                self.norms.append(float(np.abs(grid).sum()))
        return self._ops[lvl, plane, slab, thread_id, num_threads]

    def _slab_ops(self, key: tuple[int, int, int, int, int]) -> list[Op]:
        """A thread's ops for one (level, plane, slab, thread, team) shape."""
        lvl, plane, slab, thread_id, num_threads = key
        slab_lines = self._slabs[lvl][slab]
        chunk = static_chunk(len(slab_lines), num_threads, thread_id,
                             slab_lines.start)
        base = self._bases[lvl] + plane * (self.params.fine_grid >> lvl) ** 2 * 8
        ops: list[Op] = [op for k in chunk for op in (Load(base + k * LINE), _STENCIL)]
        if len(chunk):
            ops.append(Store(base + chunk.start * LINE))
        ops.append(_WAIT_SWEEP)
        return ops


class MgInitKernel(TeamParallelKernel):
    """Grid initialization (NAS MG's ``zran3``/``zero3`` phase).

    Writes every level once; a separate kernel exactly as in the real
    benchmark, so the V-cycle kernel trains against warm caches.
    """

    name = "mg-init"

    def __init__(self, solver: MgKernel) -> None:
        self._solver = solver
        self._chunks: ChunkTable = {}
        # One iteration per (level, plane, slab): fine-grained like the
        # solver, so FDT's peeled training is a tiny slice of the phase.
        self._schedule: list[tuple[int, int, int]] = []
        for lvl in range(solver.params.levels):
            n = solver.params.fine_grid >> lvl
            for plane in range(n):
                for slab in (0, 1):
                    self._schedule.append((lvl, plane, slab))

    @property
    def total_iterations(self) -> int:
        return len(self._schedule)

    def team_iteration(self, iteration: int, thread_id: int,
                       num_threads: int) -> Iterator[Op]:
        solver = self._solver
        lvl, plane, slab = self._schedule[iteration]
        n = solver.params.fine_grid >> lvl
        plane_bytes = n * n * 8
        slab_lines = solver._slabs[lvl][slab]
        chunk = team_chunks(self._chunks, len(slab_lines), num_threads,
                            slab_lines.start)[thread_id]
        base = solver._bases[lvl] + plane * plane_bytes
        for k in chunk:
            yield _INIT
            yield Store(base + k * LINE)
        yield _WAIT_SWEEP


def build(scale: float = 1.0, seed: int = 31) -> Application:
    """MG application; ``scale`` shrinks the V-cycle count."""
    cycles = max(2, int(6 * scale))
    kernel = MgKernel(MgParams(v_cycles=cycles, seed=seed))
    return Application(name="MG",
                       kernels=(MgInitKernel(kernel), kernel))


register(WorkloadSpec(
    name="MG",
    category=Category.SCALABLE,
    description="Multigrid V-cycle solver (NAS MG)",
    paper_input="64x64x64",
    repro_input="32^3 fine grid, 4 levels, 6 V-cycles",
    build=build,
))
