#!/usr/bin/env python3
"""Dynamic loop scheduling through the simulated scheduler lock.

An imbalanced loop (a few iterations cost 25x the rest) under three
execution strategies:

* static chunking — the expensive iterations strand on one thread;
* dynamic scheduling, chunk 1 — balanced, but every grab serializes on
  the scheduler lock (which the simulator models as a real lock);
* dynamic scheduling, chunk 4 — the usual compromise.

The scheduler's cursor is guarded by the simulator's *own* lock
machinery, so its serialization cost is modeled, not assumed: with many
threads and small chunks the scheduler lock itself becomes a critical
section, the pathology OpenMP manuals warn about.  The assignment runs
inside the simulated critical section (the generator resumes only when
the lock manager grants the lock), and the event engine is
deterministic, so a dynamic schedule is reproducible run to run.

Run:  python examples/dynamic_scheduling.py
"""

from dataclasses import dataclass
from typing import Callable, Iterable

from repro import MachineConfig
from repro.errors import ConfigError, WorkloadError
from repro.fdt.kernel import DataParallelKernel, Kernel
from repro.isa import Compute
from repro.isa.ops import Lock, Op, Unlock
from repro.isa.program import ProgramFactory
from repro.sim.machine import Machine

TOTAL = 64
THREADS = 8

#: Lock id reserved for the loop scheduler (workloads use small ids;
#: this stays out of their way).
SCHEDULER_LOCK = 1_000_003

#: Cost of one cursor grab: fetch-and-add plus bounds checks.
GRAB_INSTR = 60


class FunctionKernel(DataParallelKernel):
    """Adapter: build a data-parallel kernel from a plain function.

    Args:
        name: kernel name.
        total_iterations: outer-loop trip count.
        body: callable ``(i) -> ops`` (any iterable of ops) for one
            iteration.
    """

    def __init__(self, name: str, total_iterations: int,
                 body: Callable[[int], Iterable[Op]]) -> None:
        if total_iterations < 1:
            raise WorkloadError("kernel needs at least one iteration")
        self.name = name
        self._total = total_iterations
        self._body = body

    @property
    def total_iterations(self) -> int:
        return self._total

    def serial_iteration(self, i: int) -> Iterable[Op]:
        return self._body(i)


@dataclass(slots=True)
class _Cursor:
    next: int
    stop: int


def dynamic_factories(kernel: Kernel, iterations: range, num_threads: int,
                      chunk_size: int = 1) -> list[ProgramFactory]:
    """Team factories executing ``iterations`` with dynamic scheduling
    (OpenMP's ``schedule(dynamic, chunk)``).

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


def imbalanced():
    def body(i):
        # The first eight iterations are 25x the rest.
        yield Compute(25_000 if i < 8 else 1_000)
    return FunctionKernel("skew", total_iterations=TOTAL, body=body)


def run_static() -> int:
    m = Machine(MachineConfig.asplos08_baseline())
    kernel = imbalanced()
    m.run_parallel(kernel.factories(range(TOTAL), THREADS),
                   spawn_overhead=False)
    return m.now


def run_dynamic(chunk: int) -> int:
    m = Machine(MachineConfig.asplos08_baseline())
    m.run_parallel(dynamic_factories(imbalanced(), range(TOTAL), THREADS,
                                     chunk_size=chunk),
                   spawn_overhead=False)
    return m.now


def main() -> None:
    static = run_static()
    print(f"static chunks ({TOTAL // THREADS}/thread): {static:>8,} cycles")
    for chunk in (1, 4, 16):
        cycles = run_dynamic(chunk)
        print(f"dynamic, chunk {chunk:>2}:          {cycles:>8,} cycles "
              f"({static / cycles:.2f}x vs static)")


if __name__ == "__main__":
    main()
