"""Dynamic loop scheduling (OpenMP ``schedule(dynamic, chunk)``).

Static chunking assigns iterations up front; dynamic scheduling lets
threads pull chunks from a shared cursor at run time, trading scheduler
overhead for load balance.  The cursor is guarded by the simulator's
*own* lock machinery, so the scheduler's serialization cost is modeled,
not assumed — with many threads and small chunks the scheduler lock
itself becomes a critical section, exactly the pathology OpenMP manuals
warn about.

Determinism note: the assignment decision executes inside the simulated
critical section (the generator resumes only when the lock manager
grants the lock), and the event engine is deterministic, so dynamic
schedules are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.fdt.kernel import Kernel
from repro.isa.ops import Compute, Lock, Unlock
from repro.isa.program import ProgramFactory

#: Lock id reserved for the loop scheduler (workloads use small ids;
#: this stays out of their way).
SCHEDULER_LOCK = 1_000_003

#: Cost of one cursor grab: fetch-and-add plus bounds checks.
GRAB_INSTR = 60


@dataclass(slots=True)
class _Cursor:
    next: int
    stop: int


def dynamic_factories(kernel: Kernel, iterations: range, num_threads: int,
                      chunk_size: int = 1) -> list[ProgramFactory]:
    """Team factories executing ``iterations`` with dynamic scheduling.

    Each thread repeatedly takes the scheduler lock, claims the next
    ``chunk_size`` iterations, releases, and executes them — until the
    cursor is exhausted.

    Args:
        kernel: supplies ``serial_iteration``.
        iterations: the iteration range to distribute.
        num_threads: team size.
        chunk_size: iterations claimed per grab (OpenMP's chunk).

    Raises:
        ConfigError: non-positive team or chunk.
    """
    if num_threads < 1:
        raise ConfigError("num_threads must be >= 1")
    if chunk_size < 1:
        raise ConfigError("chunk_size must be >= 1")
    cursor = _Cursor(next=iterations.start, stop=iterations.stop)

    def factory(thread_id: int, team: int):
        while True:
            yield Lock(SCHEDULER_LOCK)
            yield Compute(GRAB_INSTR)
            # This assignment runs while the simulated lock is held
            # (the generator resumed only after the grant), so it is
            # serialized and deterministic.
            start = cursor.next
            stop = min(start + chunk_size, cursor.stop)
            cursor.next = stop
            yield Unlock(SCHEDULER_LOCK)
            if start >= cursor.stop:
                return
            for i in range(start, stop):
                yield from kernel.serial_iteration(i)

    return [factory] * num_threads
