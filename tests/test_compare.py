"""Tests for the policy-comparison helper."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.fdt.policies import FdtPolicy, StaticPolicy
from repro.sim.config import MachineConfig
from repro.workloads import get
from tests.programs import load

#: The shootout's comparison helper lives beside it in benchmarks/.
compare_policies = load("benchmarks/policy_compare.py").compare_policies

CFG = MachineConfig.small()


def builders():
    return {"EP": lambda: get("EP").build(0.1)}


def test_matrix_shape_and_normalization():
    result = compare_policies(builders(),
                              [StaticPolicy(8), StaticPolicy(2)],
                              config=CFG)
    assert result.policies == ["static-8", "static-2"]
    assert result.workloads == ["EP"]
    base = result.cell("EP", "static-8")
    assert base.norm_time == pytest.approx(1.0)
    assert base.norm_power == pytest.approx(1.0)
    other = result.cell("EP", "static-2")
    assert other.norm_time != 1.0


def test_baseline_index_selects_normalizer():
    result = compare_policies(builders(),
                              [StaticPolicy(8), StaticPolicy(2)],
                              config=CFG, baseline_index=1)
    assert result.baseline == "static-2"
    assert result.cell("EP", "static-2").norm_time == pytest.approx(1.0)


def test_gmeans_and_format():
    result = compare_policies(builders(),
                              [StaticPolicy(8), FdtPolicy()], config=CFG)
    assert result.gmean_time("static-8") == pytest.approx(1.0)
    text = result.format()
    assert "gmean" in text
    assert "fdt-sat+bat" in text


def test_unknown_cell_raises():
    result = compare_policies(builders(), [StaticPolicy(2)], config=CFG)
    with pytest.raises(KeyError):
        result.cell("EP", "nope")


def test_validation():
    with pytest.raises(ConfigError):
        compare_policies({}, [StaticPolicy(1)])
    with pytest.raises(ConfigError):
        compare_policies(builders(), [StaticPolicy(1)], baseline_index=5)
