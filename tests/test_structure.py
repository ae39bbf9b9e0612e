"""Structural rules of the code, one table row each.

A rule here is a property no behavioural test sees, such as how a
kernel hands out its ops.  Each row gives the rule id, the reason (what
a failure tells whoever broke it), the subjects it covers and a
predicate on one subject; the test runs every (rule, subject) pair.  A
new rule is a new row.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro.workloads.bt import BtKernel
from repro.workloads.ep import EpKernel
from repro.workloads.isort import ISortKernel
from repro.workloads.mg import MgKernel


@dataclass(frozen=True)
class Rule:
    id: str
    reason: str
    subjects: tuple[Any, ...]
    holds: Callable[[Any], bool]


RULES = (
    Rule("op-replay",
         "a kernel whose ops repeat returns its OpTable's tuple from "
         "team_iteration; a generator would rebuild every op on every call",
         (BtKernel, MgKernel, ISortKernel, EpKernel),
         lambda kernel: not inspect.isgeneratorfunction(kernel.team_iteration)),
)


@pytest.mark.parametrize(("rule", "subject"), [
    pytest.param(rule, subject, id=f"{rule.id}-{subject.__name__}")
    for rule in RULES for subject in rule.subjects
])
def test_rule(rule: Rule, subject: Any) -> None:
    assert rule.holds(subject), f"{rule.id}: {subject.__name__}: {rule.reason}"
