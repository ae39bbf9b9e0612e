#!/usr/bin/env python3
"""Check your own kernel: run the program checker programmatically.

Builds two variants of a small histogram kernel — one that updates the
shared bins under a lock, one that "forgets" the lock — and runs
``repro.check`` over both.  This is the integration path a downstream
user follows before trusting a new kernel's numbers: check it, iterate
the findings, assert it is clean.

Run:  python examples/sanitize_workload.py
"""

from typing import Iterator

from repro import Application
from repro.check import analyze_application
from repro.fdt.kernel import TeamParallelKernel
from repro.isa import BarrierWait, Compute, Load, Lock, Op, Store, Unlock
from repro.runtime.parallel import static_chunks
from repro.workloads.base import LINE, AddressSpace


class HistogramKernel(TeamParallelKernel):
    """Each thread scans its slice and accumulates into shared bins."""

    name = "histogram"

    def __init__(self, locked: bool = True, items: int = 256,
                 blocks: int = 8) -> None:
        self.locked = locked
        self.items = items
        self.blocks = blocks
        space = AddressSpace()
        self._data = space.alloc(blocks * items * 4)
        self._bins = space.alloc(LINE)

    @property
    def total_iterations(self) -> int:
        return self.blocks

    def team_iteration(self, block: int, thread_id: int,
                       num_threads: int) -> Iterator[Op]:
        chunk = static_chunks(self.items, num_threads)[thread_id]
        base = self._data + block * self.items * 4
        for item in range(chunk.start, chunk.stop, LINE // 4):
            yield Load(base + item * 4)
        yield Compute(len(chunk) * 6)
        # The shared-bin update: correct only under the lock.
        if self.locked:
            yield Lock(0)
        yield Compute(80)
        yield Store(self._bins)
        if self.locked:
            yield Unlock(0)
        yield BarrierWait(0)


def main() -> None:
    # The correct variant: the checker must come back clean.
    clean = analyze_application(lambda: Application.single(
        HistogramKernel(locked=True), name="histogram"))
    print(f"locked histogram: clean={clean.clean} "
          f"(teams of {', '.join(map(str, clean.thread_counts))} threads)")
    assert clean.clean, "the locked kernel must check clean"

    # The broken variant: iterate the findings like a CI gate would.
    racy = analyze_application(lambda: Application.single(
        HistogramKernel(locked=False), name="histogram-racy"))
    print(f"unlocked histogram: clean={racy.clean}, "
          f"{len(racy.findings)} finding(s)")
    for finding in racy.findings:
        print(f"  [{finding.kind}] {finding.message}")
    assert not racy.clean, "dropping the lock must be caught"
    assert any(f.kind == "static-empty-lockset" for f in racy.findings)
    print("the checker caught the dropped lock")


if __name__ == "__main__":
    main()
