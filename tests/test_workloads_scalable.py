"""Functional tests for the scalable workloads."""

from __future__ import annotations

import math
import weakref

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.fdt.policies import POLICIES, StaticPolicy
from repro.fdt.runner import Application, run_application
from repro.isa.ops import BarrierWait, Compute, Load, Lock, Store, Unlock
from repro.jobs import app_result_to_dict
from repro.runtime.parallel import static_chunk
from repro.sim.config import MachineConfig
from repro.workloads.base import LINE
from repro.workloads.bscholes import BScholesKernel, BScholesParams, _cnd
from repro.workloads.bt import CELL_INSTR, BtKernel, BtParams
from repro.workloads.ep import EpKernel, EpParams
from repro.workloads.isort import ISortKernel, ISortParams
from repro.workloads.mg import STENCIL_INSTR_PER_LINE, MgInitKernel, MgKernel, MgParams
from repro.workloads.pagemine import PageMineKernel, PageMineParams
from repro.workloads.synthetic import SyntheticKernel, SyntheticParams, build_synthetic
from repro.workloads.sconv import _State as SConvState
from repro.workloads.sconv import SConvParams, _PassKernel

from tests.programs import drive_team


def small_cfg() -> MachineConfig:
    return MachineConfig.small()


def _serial_pass(kernel):
    for i in range(kernel.total_iterations):
        for _op in kernel.serial_iteration(i):
            pass


# -- BT -------------------------------------------------------------------------

def test_bt_relaxation_smooths_field():
    kernel = BtKernel(BtParams(grid=8, time_steps=10))
    rough_before = float(np.abs(np.diff(kernel.field, axis=0)).sum())
    _serial_pass(kernel)
    rough_after = float(np.abs(np.diff(kernel.field, axis=0)).sum())
    assert rough_after < rough_before


def test_bt_relaxes_on_every_step_not_only_when_ops_are_built():
    kernel = BtKernel(BtParams(grid=8, time_steps=3))
    field = kernel.field.copy()
    _serial_pass(kernel)
    assert len(kernel.residuals) == 3 * (8 - 2)
    for _step in range(3):
        for plane in range(1, 7):
            field[plane] = (field[plane - 1] + 2.0 * field[plane]
                            + field[plane + 1]) / 4.0
    np.testing.assert_array_equal(kernel.field, field)


def test_bt_has_no_critical_sections():
    kernel = BtKernel(BtParams(grid=8, time_steps=2))
    ops = list(kernel.serial_iteration(1))
    assert not any(isinstance(op, Lock) for op in ops)
    assert any(isinstance(op, BarrierWait) for op in ops)


def test_bt_iterations_cover_planes_of_steps():
    kernel = BtKernel(BtParams(grid=8, time_steps=5))
    # 5 steps x 8 planes x 2 slabs per plane.
    assert kernel.total_iterations == 80


def test_bt_rejects_bad_params():
    with pytest.raises(WorkloadError):
        BtParams(grid=2)
    with pytest.raises(WorkloadError):
        BtParams(time_steps=0)


# -- MG --------------------------------------------------------------------------

def test_mg_app_has_init_then_solver():
    from repro.workloads import get
    app = get("MG").build(0.34)
    assert isinstance(app.kernels[0], MgInitKernel)
    assert isinstance(app.kernels[1], MgKernel)


def test_mg_vcycle_schedule_descends_and_ascends():
    kernel = MgKernel(MgParams(fine_grid=16, levels=3, v_cycles=1))
    levels = [lvl for lvl, _p, _s in kernel._schedule]
    assert levels[0] == 0
    assert max(levels) == 2
    # One V-cycle: down 0,1,2 then back up 1,0 (per-plane expanded).
    assert levels[-1] == 0


def test_mg_smoothing_reduces_norm():
    kernel = MgKernel(MgParams(fine_grid=16, levels=2, v_cycles=3))
    run_application(Application(name="mg", kernels=(kernel,)),
                    StaticPolicy(2), small_cfg())
    assert len(kernel.norms) >= 2
    assert kernel.norms[-1] < kernel.norms[0]


def test_mg_smooths_on_every_sweep_not_only_when_ops_are_built():
    kernel = MgKernel(MgParams(fine_grid=16, levels=2, v_cycles=3))
    grids = [grid.copy() for grid in kernel.grids]
    _serial_pass(kernel)
    # A V-cycle sweeps level 0 twice, on the way down and back up.
    assert len(kernel.norms) == 2 * 3
    norms = []
    for lvl, plane, slab in kernel._schedule:
        grid = grids[lvl]
        n = grid.shape[0]
        if slab == 0 and 0 < plane < n - 1:
            grid[plane] = (grid[plane - 1] + 2.0 * grid[plane]
                           + grid[plane + 1]) / 4.0
            if lvl == 0 and plane == n - 2:
                norms.append(float(np.abs(grid).sum()))
    assert kernel.norms == norms
    for got, expected in zip(kernel.grids, grids):
        np.testing.assert_array_equal(got, expected)


def test_mg_iteration_sizes_vary_by_level():
    kernel = MgKernel(MgParams(fine_grid=16, levels=3, v_cycles=1))
    fine = len(list(kernel.serial_iteration(0)))
    coarse_idx = next(i for i, (lvl, _p, _s) in enumerate(kernel._schedule)
                      if lvl == 2)
    coarse = len(list(kernel.serial_iteration(coarse_idx)))
    assert fine > coarse


def test_mg_rejects_too_many_levels():
    with pytest.raises(WorkloadError):
        MgParams(fine_grid=16, levels=4)  # coarsest would be 2^3


# -- per-thread chunks against static_chunk ---------------------------------------
#
# The kernels look their chunks up in a per-instance table; these
# references recompute every chunk with ``static_chunk`` on every call.


def _compute_ops(instr: int) -> list:
    ops = []
    while instr > 0:
        ops.append(Compute(min(instr, 4096)))
        instr -= 4096
    return ops


def _bt_reference(kernel, iteration, tid, team):
    g = kernel.params.grid
    plane_iter, slab = divmod(iteration, kernel.SLABS_PER_PLANE)
    slab_cells = static_chunk(g * g, kernel.SLABS_PER_PLANE, slab)
    chunk = static_chunk(len(slab_cells), team, tid, start=slab_cells.start)
    base = kernel._grid_base + (plane_iter % g) * g * g * 40
    lo, hi = base + chunk.start * 40, base + chunk.stop * 40
    ops = [Load(a) for a in range(lo // LINE * LINE, max(lo, hi - 1) + 1, LINE)]
    ops += _compute_ops(len(chunk) * CELL_INSTR)
    ops += [Store(lo // LINE * LINE)] if len(chunk) else []
    return ops + [BarrierWait(0)]


def _mg_slab(fine_grid, lvl, plane, slab, tid, team):
    """This thread's lines of a plane slab, and the plane's offset."""
    n = fine_grid >> lvl
    slab_lines = static_chunk(n * n * 8 // LINE, 2, slab)
    chunk = static_chunk(len(slab_lines), team, tid, start=slab_lines.start)
    return chunk, plane * n * n * 8


def _mg_reference(kernel, iteration, tid, team):
    lvl, plane, slab = kernel._schedule[iteration]
    chunk, offset = _mg_slab(kernel.params.fine_grid, lvl, plane, slab,
                             tid, team)
    base = kernel._bases[lvl] + offset
    ops = []
    for k in chunk:
        ops += [Load(base + k * LINE), Compute(STENCIL_INSTR_PER_LINE)]
    ops += [Store(base + chunk.start * LINE)] if len(chunk) else []
    return ops + [BarrierWait(0)]


def _mg_init_reference(init, iteration, tid, team):
    solver = init._solver
    lvl, plane, slab = init._schedule[iteration]
    chunk, offset = _mg_slab(solver.params.fine_grid, lvl, plane, slab,
                             tid, team)
    base = solver._bases[lvl] + offset
    ops = []
    for k in chunk:
        ops += [Compute(40), Store(base + k * LINE)]
    return ops + [BarrierWait(0)]


def _synthetic_reference(kernel, iteration, tid, team):
    p = kernel.params
    offset = iteration * p.lines_per_iteration
    ops = [Load(kernel._stream_base + (offset + k) * LINE)
           for k in static_chunk(p.lines_per_iteration, team, tid)]
    ops += _compute_ops(len(static_chunk(p.compute_instr, team, tid)))
    if p.cs_instr:
        ops += [Lock(0), Compute(p.cs_instr), Store(kernel._shared_base),
                Unlock(0)]
    return ops + [BarrierWait(0)]


def test_team_op_streams_match_static_chunk_reference():
    # Two time steps and two V-cycles: every BT and MG shape repeats, so
    # replayed op tuples are checked as well as freshly built ones.
    solver = MgKernel(MgParams(fine_grid=16, levels=2, v_cycles=2))
    cases = [
        (BtKernel(BtParams(time_steps=2)), _bt_reference),
        (solver, _mg_reference),
        (MgInitKernel(solver), _mg_init_reference),
    ]
    # Synthetic: lines for every thread, none at all, and 7 lines, so a
    # team of 32 has threads with none; with and without a critical
    # section.
    cases += [
        (SyntheticKernel(SyntheticParams(iterations=3, compute_instr=20_000,
                                         lines_per_iteration=lines,
                                         cs_instr=cs_instr)),
         _synthetic_reference)
        for lines, cs_instr in ((45, 0), (45, 5_000), (0, 500), (7, 0))
    ]
    for kernel, reference in cases:
        for team in (1, 7, 32):
            for iteration in range(kernel.total_iterations):
                for tid in range(team):
                    got = list(kernel.team_iteration(iteration, tid, team))
                    assert got == reference(kernel, iteration, tid, team), (
                        kernel.name, team, iteration, tid)


@pytest.mark.parametrize("kernel", [
    BtKernel(BtParams(grid=8, time_steps=2)),
    MgKernel(MgParams(fine_grid=16, levels=2, v_cycles=2)),
    ISortKernel(ISortParams(num_keys=2048, num_passes=2)),
    EpKernel(EpParams(num_numbers=8192, block_size=1024)),
    # Without streamed lines, a synthetic iteration is its table tuple.
    SyntheticKernel(SyntheticParams(iterations=8, cs_instr=500)),
], ids=["bt", "mg", "isort", "ep", "synthetic"])
def test_a_repeated_shape_replays_the_same_op_tuple(kernel):
    first = kernel.team_iteration(3, 2, 7)
    assert kernel.team_iteration(3, 2, 7) is first
    # The second time step, V-cycle or ranking pass sweeps the same
    # plane slab or tile again; every EP block has the same shape.
    assert kernel.team_iteration(3 + kernel.total_iterations // 2, 2, 7) is first


def test_op_tables_grow_with_shapes_not_with_the_run():
    bt = [BtKernel(BtParams(grid=8, time_steps=steps)) for steps in (2, 4)]
    mg = [MgKernel(MgParams(fine_grid=16, levels=2, v_cycles=cycles))
          for cycles in (1, 3)]
    for kernel in bt + mg:
        drive_team(kernel)
    # BT: 8 planes x 2 slabs x 32 threads; MG: (16 + 8) planes x 2 x 32.
    assert len(bt[0]._ops) == len(bt[1]._ops) == 8 * 2 * 32
    assert len(mg[0]._ops) == len(mg[1]._ops) == (16 + 8) * 2 * 32
    isort = [ISortKernel(ISortParams(num_keys=2048, num_passes=passes))
             for passes in (2, 4)]
    ep = [EpKernel(EpParams(num_numbers=numbers, block_size=1024))
          for numbers in (4096, 16384)]
    for kernel in isort + ep:
        drive_team(kernel)
    # ISort: 10 tiles x 32 threads; EP: one shape per thread.
    assert len(isort[0]._ops) == len(isort[1]._ops) == 10 * 32
    assert len(ep[0]._ops) == len(ep[1]._ops) == 32
    # PageMine's scan is new on every page; its merge tail is per thread,
    # whatever the team.
    pagemine = PageMineKernel(PageMineParams(num_pages=4, page_bytes=1024))
    for team in (7, 32):
        drive_team(pagemine, team)
    assert sorted(pagemine._tails) == list(range(32))


class _ReferenceSynthetic(SyntheticKernel):
    """The synthetic kernel with every op built anew on every call."""

    def team_iteration(self, iteration, thread_id, num_threads):
        return _synthetic_reference(self, iteration, thread_id, num_threads)


@pytest.mark.parametrize("bus_lines", [0, 7])
@pytest.mark.parametrize("cs_fraction", [0.0, 0.3])
def test_replayed_synthetic_runs_exactly_as_its_reference(bus_lines,
                                                          cs_fraction):
    # 7 lines over the small machine's 8 cores leave a thread without
    # loads whenever FDT picks a team of more than 7.
    app = build_synthetic(cs_fraction=cs_fraction, bus_lines=bus_lines,
                          iterations=24, compute_instr=2_000)
    kernel = app.kernels[0]
    reference = Application.single(
        _ReferenceSynthetic(kernel.params, name=kernel.name), name=app.name)
    replayed, expected = (
        app_result_to_dict(run_application(a, POLICIES["fdt"](), small_cfg()))
        for a in (app, reference))
    assert replayed == expected


@pytest.mark.parametrize("make", [
    lambda: BtKernel(BtParams(grid=8, time_steps=1)),
    lambda: MgKernel(MgParams(fine_grid=16, levels=2, v_cycles=1)),
    lambda: ISortKernel(ISortParams(num_keys=2048, num_passes=1)),
    lambda: EpKernel(EpParams(num_numbers=4096, block_size=1024)),
    lambda: PageMineKernel(PageMineParams(num_pages=1)),
    lambda: SyntheticKernel(SyntheticParams(iterations=1,
                                            lines_per_iteration=4)),
], ids=["bt", "mg", "isort", "ep", "pagemine", "synthetic"])
def test_an_op_table_does_not_keep_its_kernel_alive(make):
    # The table holds its builder weakly, so dropping a finished kernel
    # frees it (and its arrays and tables) at once, not at the next
    # cycle collection.
    kernel = make()
    list(kernel.team_iteration(0, 0, 1))
    ref = weakref.ref(kernel)
    del kernel
    assert ref() is None


# -- BScholes ------------------------------------------------------------------------

def test_cnd_is_math_erf_element_by_element():
    x = np.random.default_rng(5).standard_normal(257) * 4.0
    x[:3] = (0.0, -40.0, 40.0)
    got = _cnd(x)
    assert got.dtype == np.float64 and got.shape == x.shape
    expected = [0.5 * (1 + math.erf(v / math.sqrt(2))) for v in x]
    assert got.tolist() == expected  # exact, not approximate


def test_bscholes_put_call_parity():
    kernel = BScholesKernel(BScholesParams(num_options=1024))
    for i in range(kernel.total_iterations):
        for _op in kernel.serial_iteration(i):
            pass
    r = kernel.params.riskfree
    lhs = kernel.call - kernel.put
    rhs = kernel.spot - kernel.strike * np.exp(-r * kernel.expiry)
    np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def test_bscholes_call_prices_bounded():
    kernel = BScholesKernel(BScholesParams(num_options=512))
    for i in range(kernel.total_iterations):
        for _op in kernel.serial_iteration(i):
            pass
    assert np.all(kernel.call >= -1e-12)
    assert np.all(kernel.call <= kernel.spot + 1e-12)


def test_bscholes_reads_five_arrays_writes_two():
    kernel = BScholesKernel(BScholesParams(num_options=512))
    ops = list(kernel.serial_iteration(0))
    loads = {op.addr for op in ops if isinstance(op, Load)}
    stores = {op.addr for op in ops if isinstance(op, Store)}
    assert len(loads) == 5 * 2  # 32 options x 4 B = 2 lines per array
    assert len(stores) == 2 * 2


def test_bscholes_rejects_tiny_input():
    with pytest.raises(WorkloadError):
        BScholesParams(num_options=8)


# -- SConv ------------------------------------------------------------------------------

def test_sconv_two_pass_matches_direct_convolution():
    state = SConvState(SConvParams(size=128, radius=8))
    for kernel in (_PassKernel(state, 0), _PassKernel(state, 1)):
        for i in range(kernel.total_iterations):
            for _op in kernel.serial_iteration(i):
                pass
    np.testing.assert_allclose(state.output, state.expected(), atol=1e-10)


def test_sconv_kernel_is_normalized():
    state = SConvState(SConvParams(size=128, radius=8))
    assert float(state.kernel.sum()) == pytest.approx(1.0)


def test_sconv_row_pass_reads_input_writes_temp():
    state = SConvState(SConvParams(size=128, radius=8))
    ops = list(_PassKernel(state, 0).serial_iteration(0))
    loads = {op.addr for op in ops if isinstance(op, Load)}
    stores = {op.addr for op in ops if isinstance(op, Store)}
    assert all(state.in_base <= a < state.tmp_base for a in loads)
    assert all(state.tmp_base <= a < state.out_base for a in stores)


def test_sconv_build_shrinks_radius_with_image():
    from repro.workloads import get
    app = get("SConv").build(0.25)  # 128-px image
    state = app.kernels[0].state  # type: ignore[attr-defined]
    assert state.params.radius <= state.params.size // 4


def test_sconv_rejects_bad_params():
    with pytest.raises(WorkloadError):
        SConvParams(size=8)
    with pytest.raises(WorkloadError):
        SConvParams(radius=0)
