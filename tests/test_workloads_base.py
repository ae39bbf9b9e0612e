"""Unit tests for the workload registry and shared helpers."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.workloads import Category, all_specs, get
from repro.workloads.base import AddressSpace


def test_all_twelve_workloads_registered():
    names = [s.name for s in all_specs()]
    assert names == ["PageMine", "ISort", "GSearch", "EP",
                     "ED", "convert", "Transpose", "MTwister",
                     "BT", "MG", "BScholes", "SConv"]
    assert get("pagemine") is get("PageMine")


def test_categories_match_table2():
    def names(category: Category) -> list[str]:
        return [s.name for s in all_specs() if s.category is category]

    assert names(Category.CS_LIMITED) == ["PageMine", "ISort", "GSearch", "EP"]
    assert names(Category.BW_LIMITED) == ["ED", "convert", "Transpose",
                                          "MTwister"]
    assert names(Category.SCALABLE) == ["BT", "MG", "BScholes", "SConv"]


def test_get_unknown_workload_raises():
    with pytest.raises(WorkloadError):
        get("NotAWorkload")


def test_every_spec_has_paper_input():
    for spec in all_specs():
        assert spec.paper_input
        assert spec.repro_input
        assert spec.description


def test_address_space_regions_are_disjoint():
    space = AddressSpace()
    a = space.alloc(1000)
    b = space.alloc(64)
    c = space.alloc(1)
    assert a + 1000 <= b
    assert b + 64 <= c


def test_address_space_alignment():
    space = AddressSpace()
    space.alloc(3)
    b = space.alloc(64)
    assert b % 64 == 0


def test_address_space_rejects_empty_alloc():
    with pytest.raises(WorkloadError):
        AddressSpace().alloc(0)
