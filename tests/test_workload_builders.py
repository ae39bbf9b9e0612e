"""Contract tests every registered workload builder must satisfy."""

from __future__ import annotations

import pytest

from repro.fdt.runner import Application
from repro.workloads import all_specs

from tests.programs import validate_program

SPECS = {s.name: s for s in all_specs()}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_build_returns_fresh_application(name):
    spec = SPECS[name]
    a = spec.build(0.1)
    b = spec.build(0.1)
    assert isinstance(a, Application)
    assert a is not b
    assert a.kernels is not b.kernels
    # Kernels are fresh too (they carry mutable computed state).
    assert a.kernels[0] is not b.kernels[0]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_small_scale_still_has_trainable_loop(name):
    app = SPECS[name].build(0.05)
    for kernel in app.kernels:
        # FDT needs at least a couple of iterations beyond training.
        assert kernel.total_iterations >= 10, kernel.name


@pytest.mark.parametrize("name", sorted(SPECS))
def test_first_iteration_is_well_formed(name):
    app = SPECS[name].build(0.1)
    for kernel in app.kernels:
        ops = validate_program(kernel.serial_iteration(0))
        assert ops, f"{kernel.name} iteration 0 is empty"


@pytest.mark.parametrize("name", sorted(SPECS))
def test_last_iteration_is_well_formed(name):
    app = SPECS[name].build(0.1)
    for kernel in app.kernels:
        last = kernel.total_iterations - 1
        validate_program(kernel.serial_iteration(last))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_scale_monotone_in_iterations(name):
    small = SPECS[name].build(0.1)
    large = SPECS[name].build(1.0)
    small_total = sum(k.total_iterations for k in small.kernels)
    large_total = sum(k.total_iterations for k in large.kernels)
    assert large_total >= small_total


@pytest.mark.parametrize("name", sorted(SPECS))
def test_factories_match_team_size(name):
    app = SPECS[name].build(0.1)
    for kernel in app.kernels:
        factories = kernel.factories(range(kernel.total_iterations), 3)
        assert len(factories) == 3


@pytest.mark.parametrize("name", sorted(SPECS))
def test_deterministic_op_streams(name):
    a = SPECS[name].build(0.1)
    b = SPECS[name].build(0.1)
    for ka, kb in zip(a.kernels, b.kernels):
        ops_a = list(ka.serial_iteration(0))
        ops_b = list(kb.serial_iteration(0))
        assert len(ops_a) == len(ops_b)
        for oa, ob in zip(ops_a, ops_b):
            assert type(oa) is type(ob)
            assert oa == ob
