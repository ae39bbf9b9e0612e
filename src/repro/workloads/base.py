"""Shared infrastructure for the twelve paper workloads (Table 2).

Workloads are re-implementations of the paper's kernels as op-stream
generators: they perform the real algorithmic work (real histograms, real
sorting passes, real Mersenne-Twister state updates) at the Python level
while emitting the corresponding :mod:`repro.isa` ops — loads and stores
with the true address pattern, compute ops sized by an instructions-per-
element cost, and the kernel's actual locks and barriers.

Input sizes are scaled down from the paper's (documented per workload and
in DESIGN.md §2); the *ratios* that drive the paper's results — critical-
section fraction and single-thread bus utilization — are calibrated to the
values the paper reports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import WorkloadError
from repro.fdt.runner import Application
from repro.isa.ops import BarrierWait, Compute, Load, Lock, Op, Store, Unlock


class Category(enum.Enum):
    """The paper's three workload classes (Table 2)."""

    CS_LIMITED = "synchronization-limited"
    BW_LIMITED = "bandwidth-limited"
    SCALABLE = "scalable"


LINE = 64  # cache-line bytes; all workloads assume the Table 1 line size.


class AddressSpace:
    """Bump allocator handing out disjoint, line-aligned regions.

    Every workload instance owns one, so two kernels of the same
    application never alias and two applications never share addresses.
    """

    def __init__(self, base: int = 1 << 22) -> None:
        self._next = base

    def alloc(self, nbytes: int, align: int = LINE) -> int:
        """Reserve ``nbytes`` and return the region's base address."""
        if nbytes <= 0:
            raise WorkloadError("allocation must be positive")
        mask = align - 1
        self._next = (self._next + mask) & ~mask
        base = self._next
        self._next += nbytes
        return base


def compute_ops(instructions: int) -> list[Compute]:
    """``instructions`` of straight-line work as Compute ops of <= 4096."""
    return [Compute(min(n, 4096)) for n in range(instructions, 0, -4096)]


def merge_tail(local_base: int, shared_base: int, nbytes: int,
               merge: Compute) -> Iterator[Op]:
    """A thread's serial part of paper Figure 1: under lock 0, each local
    line is loaded, merged and folded into the shared line by one Store,
    a read-modify-write (x86 ``add [mem], reg``); then barrier 0."""
    yield Lock(0)
    for off in range(0, nbytes, LINE):
        yield Load(local_base + off)
        yield merge
        yield Store(shared_base + off)
    yield Unlock(0)
    yield BarrierWait(0)


#: Builder signature: ``scale`` shrinks the input set for fast runs while
#: preserving the calibrated ratios; 1.0 is the repo's reference input.
AppBuilder = Callable[[float], Application]


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """Table 2 row: a workload's identity plus its builder."""

    name: str
    category: Category
    description: str
    paper_input: str
    repro_input: str
    build: AppBuilder


_REGISTRY: dict[str, WorkloadSpec] = {}


def register(spec: WorkloadSpec) -> WorkloadSpec:
    """Add a workload to the registry :func:`repro.workloads.get` reads."""
    if spec.name in _REGISTRY:
        raise WorkloadError(f"workload {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec
