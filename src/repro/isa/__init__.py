"""Tiny instruction set used by simulated thread programs.

Workloads do not ship x86 binaries; they ship Python generators that yield
:class:`Op` instances.  The simulated core consumes one op at a time and
charges cycles according to the machine model:

* :class:`Compute` — ``n`` dynamic ALU instructions, retired two per cycle
  by the 2-wide in-order core.
* :class:`Load` / :class:`Store` — a data access by virtual byte address,
  resolved through the full cache/coherence/bus/DRAM hierarchy.
* :class:`Lock` / :class:`Unlock` — critical-section boundaries, serviced
  by the runtime's FIFO lock manager.
* :class:`BarrierWait` — sense-reversing barrier across the thread team.
* :class:`ReadCounter` — read a performance counter.  The core *sends the
  value back into the generator*, i.e. ``value = yield ReadCounter(...)``,
  which is how FDT training loops observe time the same way the paper reads
  the cycle counter at critical-section entry and exit.

The generator protocol keeps million-instruction kernels memory-light: ops
are produced lazily, never materialized as lists.
"""

from repro.isa.ops import (
    BarrierWait,
    Compute,
    CounterKind,
    Load,
    Lock,
    Op,
    ReadCounter,
    Store,
    Unlock,
)
from repro.isa.program import ThreadProgram

__all__ = [
    "Op",
    "Compute",
    "Load",
    "Store",
    "Lock",
    "Unlock",
    "BarrierWait",
    "ReadCounter",
    "CounterKind",
    "ThreadProgram",
]
