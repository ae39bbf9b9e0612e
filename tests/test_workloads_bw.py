"""Functional tests for the bandwidth-limited workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.fdt.policies import StaticPolicy
from repro.fdt.runner import Application, run_application
from repro.isa.ops import Load, Store
from repro.sim.config import MachineConfig
from repro.workloads.convert import ConvertKernel, ConvertParams
from repro.workloads.ed import EdKernel, EdParams
from repro.workloads.mtwister import _State, BoxMullerKernel, MTGenKernel, MTwisterParams
from repro.workloads.transpose import TransposeKernel, TransposeParams

from tests.programs import validate_program


def small_cfg() -> MachineConfig:
    return MachineConfig.small()


# -- ED ------------------------------------------------------------------------

def test_ed_distance_matches_numpy():
    kernel = EdKernel(EdParams(n_elements=8192))
    for i in range(kernel.total_iterations):
        for _op in kernel.serial_iteration(i):
            pass
    assert kernel.distance() == pytest.approx(kernel.expected_distance())


def test_ed_distance_correct_under_team_execution():
    kernel = EdKernel(EdParams(n_elements=8192))
    run_application(Application.single(kernel), StaticPolicy(4), small_cfg())
    assert kernel.distance() == pytest.approx(kernel.expected_distance())


def test_ed_streams_every_line_once():
    kernel = EdKernel(EdParams(n_elements=4096))
    addrs = []
    for i in range(kernel.total_iterations):
        addrs.extend(op.addr for op in kernel.serial_iteration(i)
                     if isinstance(op, Load))
    assert len(addrs) == len(set(addrs))  # no reuse: pure streaming
    assert len(addrs) == kernel.total_iterations * 64


def test_ed_rejects_tiny_input():
    with pytest.raises(WorkloadError):
        EdParams(n_elements=10)


# -- convert ----------------------------------------------------------------------

def test_convert_output_matches_table_map():
    kernel = ConvertKernel(ConvertParams(height=16))
    for row in range(kernel.total_iterations):
        for _op in kernel.serial_iteration(row):
            pass
    np.testing.assert_array_equal(kernel.output, kernel.expected_output())


def test_convert_reads_and_writes_each_row():
    kernel = ConvertKernel(ConvertParams(height=4))
    # One row = two segments of 10 lines each.
    for segment in (0, 1):
        ops = validate_program(kernel.serial_iteration(segment))
        loads = [op for op in ops if isinstance(op, Load)]
        stores = [op for op in ops if isinstance(op, Store)]
        assert len(loads) == len(stores) == 10  # 640 B / 64 B


def test_convert_input_and_output_disjoint():
    kernel = ConvertKernel(ConvertParams(height=4))
    ops = list(kernel.serial_iteration(1))
    load_addrs = {op.addr for op in ops if isinstance(op, Load)}
    store_addrs = {op.addr for op in ops if isinstance(op, Store)}
    assert not load_addrs & store_addrs


def test_convert_rejects_narrow_image():
    with pytest.raises(WorkloadError):
        ConvertParams(width=8, bytes_per_pixel=4)


# -- Transpose -----------------------------------------------------------------------

def test_transpose_result_matches_numpy():
    kernel = TransposeKernel(TransposeParams(rows=32, cols=64))
    for t in range(kernel.total_iterations):
        for _op in kernel.serial_iteration(t):
            pass
    np.testing.assert_array_equal(kernel.result, kernel.expected_result())


def test_transpose_under_team_execution():
    kernel = TransposeKernel(TransposeParams(rows=32, cols=64))
    run_application(Application.single(kernel), StaticPolicy(4), small_cfg())
    np.testing.assert_array_equal(kernel.result, kernel.expected_result())


def test_transpose_tile_reads_16_lines_writes_16_lines():
    kernel = TransposeKernel(TransposeParams(rows=32, cols=64))
    ops = list(kernel.serial_iteration(0))
    assert sum(1 for op in ops if isinstance(op, Load)) == 16
    assert sum(1 for op in ops if isinstance(op, Store)) == 16


def test_transpose_rejects_unaligned_dims():
    with pytest.raises(WorkloadError):
        TransposeParams(rows=30, cols=64)


# -- MTwister -------------------------------------------------------------------------

def test_boxmuller_produces_standard_gaussians():
    state = _State(MTwisterParams(n_numbers=65536))
    k2 = BoxMullerKernel(state)
    for i in range(k2.total_iterations):
        for _op in k2.serial_iteration(i):
            pass
    produced = state.gaussians[state.gaussians != 0.0]
    assert len(produced) > 10_000
    assert abs(float(np.mean(produced))) < 0.05
    assert 0.9 < float(np.std(produced)) < 1.1


def test_mtwister_uniforms_come_from_mt19937():
    state = _State(MTwisterParams(n_numbers=1024, seed=4357))
    rng = np.random.Generator(np.random.MT19937(4357))
    np.testing.assert_allclose(state.uniforms, rng.random(1024))


def test_mtwister_app_has_two_kernels():
    from repro.workloads import get
    app = get("MTwister").build(0.05)
    assert len(app.kernels) == 2
    assert isinstance(app.kernels[0], MTGenKernel)
    assert isinstance(app.kernels[1], BoxMullerKernel)


def test_gen_kernel_only_stores_boxmuller_loads_and_stores():
    state = _State(MTwisterParams(n_numbers=16384))
    gen_ops = list(MTGenKernel(state).serial_iteration(0))
    bm_ops = list(BoxMullerKernel(state).serial_iteration(0))
    assert not any(isinstance(op, Load) for op in gen_ops)
    assert any(isinstance(op, Store) for op in gen_ops)
    assert any(isinstance(op, Load) for op in bm_ops)
    assert any(isinstance(op, Store) for op in bm_ops)


def test_mtwister_rejects_tiny_input():
    with pytest.raises(WorkloadError):
        MTwisterParams(n_numbers=16)
