"""How a workload describes a parallelized loop kernel to FDT.

The paper applies FDT to loop kernels the programmer already parallelized
(identified by the OpenMP ``parallel`` directive).  Two shapes cover all
twelve evaluated workloads:

* :class:`DataParallelKernel` — a flat parallel loop (ED, Transpose, …):
  iterations are independent and a team executes contiguous chunks.
* :class:`TeamParallelKernel` — an iterative kernel (PageMine, ISort, …):
  each outer iteration's work is internally divided across the team,
  usually ending in a critical section and a barrier.

Both expose the two views FDT needs:

* ``serial_iteration(i)`` — one iteration's full work on one thread, used
  by the single-threaded training loop (the paper's peeled loop);
* ``factories(iterations, num_threads)`` — per-thread programs executing
  a range of iterations with a team, used for the execution phase.
"""

from __future__ import annotations

import abc
import weakref
from typing import Any, Callable, Hashable, Iterable, Iterator

from repro.errors import WorkloadError
from repro.isa.ops import Op
from repro.isa.program import ProgramFactory
from repro.runtime.parallel import static_chunks


class Kernel(abc.ABC):
    """A parallelized loop kernel FDT can train on and execute."""

    #: Human-readable kernel name (used in reports).
    name: str = "kernel"

    @property
    @abc.abstractmethod
    def total_iterations(self) -> int:
        """Number of outer-loop iterations."""

    @abc.abstractmethod
    def serial_iteration(self, i: int) -> Iterable[Op]:
        """One iteration's complete work, runnable on a single thread.

        An iteration may return a prebuilt tuple (an :class:`OpTable`
        entry), and its real-value work runs at the call (callers make it
        when they want its first op).
        """

    @abc.abstractmethod
    def factories(self, iterations: range,
                  num_threads: int) -> list[ProgramFactory]:
        """Team programs executing ``iterations`` with ``num_threads``."""

    def validate_team(self, num_threads: int) -> None:
        if num_threads < 1:
            raise WorkloadError(f"{self.name}: team must have >= 1 thread")


class DataParallelKernel(Kernel):
    """A flat parallel loop: iterations are independent work units.

    Subclasses implement :meth:`serial_iteration` only; the team execution
    statically chunks the iteration range, each thread running its chunk's
    iterations back to back (OpenMP ``schedule(static)``).
    """

    def factories(self, iterations: range,
                  num_threads: int) -> list[ProgramFactory]:
        self.validate_team(num_threads)
        chunks = static_chunks(len(iterations), num_threads,
                               start=iterations.start)

        def make_factory(chunk: range) -> ProgramFactory:
            def factory(thread_id: int, team: int) -> Iterator[Op]:
                for i in chunk:
                    yield from self.serial_iteration(i)
            return factory

        return [make_factory(chunk) for chunk in chunks]


class TeamParallelKernel(Kernel):
    """An iterative kernel whose per-iteration work is split by the team.

    Subclasses implement :meth:`team_iteration`; the serial view is simply
    a team of one.  Execution runs *all* iterations inside one parallel
    region, with whatever barriers :meth:`team_iteration` emits keeping
    the team in step (the usual ``omp parallel`` + inner loop pattern).
    """

    @abc.abstractmethod
    def team_iteration(self, i: int, thread_id: int,
                       num_threads: int) -> Iterable[Op]:
        """Thread ``thread_id``'s share of iteration ``i``, under
        :meth:`Kernel.serial_iteration`'s contract."""

    def serial_iteration(self, i: int) -> Iterable[Op]:
        return self.team_iteration(i, 0, 1)

    def factories(self, iterations: range,
                  num_threads: int) -> list[ProgramFactory]:
        self.validate_team(num_threads)

        def factory(thread_id: int, team: int) -> Iterator[Op]:
            for i in iterations:
                yield from self.team_iteration(i, thread_id, team)

        return [factory] * num_threads


class OpTable(dict[Hashable, tuple[Op, ...]]):
    """Op tuples by shape key: a hit is one dict lookup, and a miss stores
    ``tuple(build(key))``.  ``build``, a method of the kernel that owns the
    table, is held weakly, so the table makes no reference cycle."""

    def __init__(self, build: Callable[[Any], Iterable[Op]]) -> None:
        self._build = weakref.WeakMethod(build)

    def __missing__(self, key: Hashable) -> tuple[Op, ...]:
        ops = self[key] = tuple(self._build()(key))  # type: ignore[misc]
        return ops


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
