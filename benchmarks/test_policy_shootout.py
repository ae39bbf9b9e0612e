"""Capstone shootout: every policy on one workload per class.

Conventional 32-thread threading vs the paper's FDT vs the §9
extensions, normalized to the conventional baseline.  Summarizes the
whole reproduction in one table: FDT wins or ties everywhere the paper
says it should, and the extensions close its known gaps.
"""

from __future__ import annotations

from conftest import run_once
from policy_compare import compare_policies

from repro.fdt.policies import POLICIES
from repro.workloads import get

BUILDERS = {
    "PageMine": lambda: get("PageMine").build(0.5),   # CS-limited
    "ED": lambda: get("ED").build(0.25),               # BW-limited
    "BScholes": lambda: get("BScholes").build(0.5),    # scalable
}

#: Registry names, in table order: the conventional baseline, the
#: paper, then §9's contended-CS refinement and sub-linear BAT.
CONTENDERS = ("static", "fdt", "sat-two-phase", "bat-calibrated-4")


def test_policy_shootout(benchmark, save_result):
    result = run_once(
        benchmark, lambda: compare_policies(
            BUILDERS, [POLICIES[name]() for name in CONTENDERS]))
    save_result("policy_shootout", result.format())

    fdt = "fdt-sat+bat"
    # FDT crushes the baseline on the CS-limited workload...
    page = result.cell("PageMine", fdt)
    assert page.norm_time < 0.6
    assert page.norm_power < 0.3
    # ...saves most of the power at ~flat time on the BW-limited one...
    ed = result.cell("ED", fdt)
    assert ed.norm_time < 1.3
    assert ed.norm_power < 0.4
    # ...and leaves the scalable one alone.
    bs = result.cell("BScholes", fdt)
    assert bs.threads[-1] == 32

    # The SAT extension never loses to plain FDT on the CS workload.
    two_phase = result.cell("PageMine", "sat-two-phase")
    assert two_phase.norm_time <= page.norm_time * 1.15

    # The BAT extension matches or beats plain FDT on the BW workload.
    calibrated = result.cell("ED", "bat-calibrated-4")
    assert calibrated.norm_time <= ed.norm_time * 1.10

    # Aggregate: every FDT-family policy beats the baseline's gmeans.
    for policy in (fdt, "sat-two-phase", "bat-calibrated-4"):
        assert result.gmean_power(policy) < 0.65, policy
