"""The full FDT decision matrix: every workload lands in its class.

One parametrized test per Table 2 workload (MTwister excluded here —
its L3-overflow property needs near-full scale, covered by the Figure
12/14 benchmarks) checking that combined FDT's decision matches the
workload's class at test scale.
"""

from __future__ import annotations

import pytest

from repro.jobs import JobSpec, PolicySpec, WorkloadRef
from repro.sim.config import MachineConfig
from repro.workloads import Category, get

CFG = MachineConfig.asplos08_baseline()

# name -> (scale, expected band of the *final* kernel's decision)
MATRIX = {
    "PageMine": (0.2, (2, 8)),
    "ISort": (0.5, (4, 9)),
    "GSearch": (0.5, (2, 8)),
    "EP": (0.5, (2, 8)),
    "ED": (0.1, (6, 10)),
    "convert": (1.0, (14, 20)),
    "Transpose": (0.2, (6, 10)),
    "BT": (0.5, (32, 32)),
    "MG": (0.5, (32, 32)),
    "BScholes": (0.5, (32, 32)),
    "SConv": (0.5, (32, 32)),
}


def fdt_run(memo, name: str):
    """Combined FDT on the Table 1 machine; both tests share the run."""
    return memo.run_one(JobSpec(workload=WorkloadRef(name, MATRIX[name][0]),
                                policy=PolicySpec.fdt(), config=CFG))


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_fdt_decision_matches_class(name, memo):
    _scale, (lo, hi) = MATRIX[name]
    res = fdt_run(memo, name)
    decision = res.kernel_infos[-1].threads
    assert lo <= decision <= hi, (
        f"{name}: FDT chose {decision}, expected [{lo}, {hi}]")


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_limiter_attribution_matches_class(name, memo):
    """The *reason* matches too: CS apps are P_CS-bound, BW apps are
    P_BW-bound, scalable apps hit neither bound."""
    category = get(name).category
    res = fdt_run(memo, name)
    est = res.kernel_infos[-1].estimates
    if category is Category.CS_LIMITED:
        assert est.p_cs < est.p_bw, f"{name}: SAT should bind"
    elif category is Category.BW_LIMITED:
        assert est.p_bw < est.p_cs, f"{name}: BAT should bind"
    else:
        assert est.p_fdt == 32, f"{name}: neither limiter should bind"
