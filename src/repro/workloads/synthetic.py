"""Synthetic kernels with dial-a-limiter knobs.

The twelve Table 2 workloads are fixed points; these kernels let tests,
ablations, and users place a kernel *anywhere* in the (critical-section,
bandwidth) plane:

* ``cs_instr`` — instructions inside a per-iteration critical section
  (drives Eq. 1's ``T_CS``);
* ``lines_per_iteration`` — streaming loads, fresh lines every
  iteration (cold misses), driving bus demand (Eq. 4's ``BU_1``);
* ``compute_instr`` — the perfectly parallel part (``T_NoCS``).

``SyntheticKernel`` follows the Figure-1 team pattern (slice, critical
section, barrier), so every analytical quantity in the paper maps to a
constructor argument.  The crossover experiment (the ``crossover``
entry of :data:`repro.experiments.FIGURES`) sweeps these knobs to
verify Eq. 7 inside the simulator rather than just inside the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import WorkloadError
from repro.fdt.kernel import OpTable, TeamParallelKernel
from repro.fdt.runner import Application
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
from repro.runtime.parallel import ChunkTable, static_chunk, team_chunks
from repro.workloads.base import LINE, AddressSpace, AppBuilder, compute_ops

_CS_LOCK = 0
_BARRIER = 0
#: Ops are immutable values, so each constant one is built once here.
_LOCK_CS, _UNLOCK_CS = Lock(_CS_LOCK), Unlock(_CS_LOCK)
_WAIT = BarrierWait(_BARRIER)


@dataclass(frozen=True, slots=True)
class SyntheticParams:
    """Knobs of the synthetic kernel."""

    iterations: int = 128
    #: Perfectly parallel instructions per iteration (split by the team).
    compute_instr: int = 20_000
    #: Fresh cache lines streamed per iteration (split by the team).
    lines_per_iteration: int = 0
    #: Instructions inside the per-thread critical section, which then
    #: writes one shared line (ping-pong).
    cs_instr: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise WorkloadError("need at least one iteration")
        if min(self.compute_instr, self.lines_per_iteration,
               self.cs_instr) < 0:
            raise WorkloadError("knobs must be non-negative")


class SyntheticKernel(TeamParallelKernel):
    """A Figure-1-shaped kernel with fully parameterized costs."""

    def __init__(self, params: SyntheticParams,
                 name: str = "synthetic") -> None:
        self.params = params
        self.name = name
        space = AddressSpace()
        self._stream_base = space.alloc(
            max(LINE, params.lines_per_iteration * LINE) * params.iterations)
        self._shared_base = space.alloc(LINE)
        self._chunks: ChunkTable = {}
        self._tails = OpTable(self._tail)

    @property
    def total_iterations(self) -> int:
        return self.params.iterations

    def team_iteration(self, iteration: int, thread_id: int,
                       num_threads: int) -> tuple[Op, ...]:
        tail = self._tails[thread_id, num_threads]
        # Parallel part: this thread's slice of the iteration's fresh
        # lines, new on every iteration, so built per call.
        per_iteration = self.params.lines_per_iteration
        lines = team_chunks(self._chunks, per_iteration, num_threads)[thread_id]
        if not lines:
            return tail
        first = self._stream_base + (iteration * per_iteration + lines.start) * LINE
        return (*map(Load, range(first, first + len(lines) * LINE, LINE)), *tail)

    def _tail(self, key: tuple[int, int]) -> Iterator[Op]:
        """A thread's ops after its loads, which depend on (thread, team)."""
        thread_id, num_threads = key
        p = self.params
        yield from compute_ops(len(static_chunk(p.compute_instr, num_threads,
                                                thread_id)))
        # Critical section: constant per-thread work on one shared line.
        if p.cs_instr:
            yield from (_LOCK_CS, Compute(p.cs_instr),
                        Store(self._shared_base), _UNLOCK_CS)
        yield _WAIT


# -- positive controls of ``repro check`` ----------------------------------
#
# Deliberately broken kernels: each must trip the finding it is named
# for.  Several are arranged so a simulated run dodges or survives the
# defect (staggered lock inversions, a latent deadlock) — the point is
# that ahead-of-run analysis proves what one interleaving may not show.
# None is in the Table 2 roster; ``repro check`` resolves them by name
# from :data:`FIXTURES`.

#: One iteration of a fixture: ``(shared_addr, thread_id) -> ops``.
FixtureBody = Callable[[int, int], Iterator[Op]]

#: Instructions of head start per stagger step; at 2-wide issue this
#: dwarfs a whole critical region, so staggered threads' acquires never
#: actually overlap and the FIFO grant order dodges the deadlock.
_STAGGER_INSTR = 40_000


class FixtureKernel(TeamParallelKernel):
    """A positive control: ``iterations`` rounds of one ``body``."""

    def __init__(self, name: str, iterations: int,
                 body: FixtureBody) -> None:
        self.name = name
        self._iterations = iterations
        self._body = body
        #: The one line the bodies contend on, exposed so tests can
        #: assert that a finding names it.
        self.shared_addr = AddressSpace().alloc(LINE)

    @property
    def total_iterations(self) -> int:
        return self._iterations

    def team_iteration(self, iteration: int, thread_id: int,
                       num_threads: int) -> Iterator[Op]:
        return self._body(self.shared_addr, thread_id)


def _racy(shared: int, tid: int) -> Iterator[Op]:
    """Unprotected read-modify-write of the shared line (a data race):
    the lockset rule must report a ``static-empty-lockset`` write-write
    race on ``shared_addr``."""
    # Skew the threads a little so accesses interleave rather than
    # proceeding in lockstep (the race is there either way).
    yield Compute(40 + 14 * tid)
    yield Load(shared)
    yield Compute(20)
    yield Store(shared)  # no lock: the seeded race
    yield _WAIT


def _lock_inversion(shared: int, tid: int) -> Iterator[Op]:
    """Opposite acquisition orders on two locks (potential deadlock).

    Even threads take lock 0 then lock 1; odd threads, staggered behind,
    take 1 then 0.  The run completes — exactly the latent bug the
    lock-order analysis exists to catch (edges 0->1 and 1->0 form a
    cycle).  The store is protected by both locks, so no race.
    """
    if tid % 2 == 0:
        first, second = 0, 1
    else:
        first, second = 1, 0
        yield Compute(_STAGGER_INSTR)
    yield Lock(first)
    yield Compute(10)
    yield Lock(second)
    yield Store(shared)
    yield Unlock(second)
    yield Unlock(first)
    yield _WAIT


def _unheld_unlock(shared: int, tid: int) -> Iterator[Op]:
    """Releases a lock it never acquired (``static-unlock-of-unheld``):
    a simulated run aborts when the lock manager services the Unlock."""
    yield Compute(50)
    yield _UNLOCK_CS  # never acquired
    yield _WAIT


def _static_deadlock(shared: int, tid: int) -> Iterator[Op]:
    """Three locks acquired in a rotating order (a 3-cycle).

    Thread ``t`` takes lock ``t % 3`` then ``(t + 1) % 3``, so the
    team's acquires-while-holding edges form 0->1->2->0, with every
    thread staggered clear of the others: the deadlock is latent,
    provable only from the streams (``static-lock-order-cycle``).
    """
    first, second = tid % 3, (tid + 1) % 3
    yield Compute(_STAGGER_INSTR * tid + 10)
    yield Lock(first)
    yield Compute(10)
    yield Lock(second)
    yield Store(shared)
    yield Unlock(second)
    yield Unlock(first)
    yield _WAIT


def _barrier_mismatch(shared: int, tid: int) -> Iterator[Op]:
    """Thread 0 arrives at one more barrier than the rest of the team: a
    guaranteed hang with two or more threads, proved as
    ``static-barrier-count-mismatch`` before any cycle simulates."""
    yield Compute(100)
    yield _WAIT
    if tid == 0:
        yield BarrierWait(_BARRIER + 1)  # nobody else ever arrives


def _counter_in_cs(shared: int, tid: int) -> Iterator[Op]:
    """Reads the cycle counter while holding the critical-section lock.

    Runs fine — but the measurement folds instrumentation overhead into
    T_CS itself (Section 4.2.1 brackets critical sections from the
    outside), so the static lint flags ``static-counter-in-cs``.
    """
    yield Compute(200)
    yield _LOCK_CS
    _ = yield ReadCounter(CounterKind.CYCLES)  # the seeded defect
    yield Compute(50)
    yield Store(shared)
    yield _UNLOCK_CS
    yield _WAIT


def _fixture(name: str, iterations: int, body: FixtureBody) -> AppBuilder:
    def build(scale: float = 1.0) -> Application:
        # ``scale`` is accepted for CLI symmetry; a fixture has one size.
        return Application.single(FixtureKernel(name, iterations, body))
    return build


#: Fixture name -> ``scale -> Application`` builder: the one table
#: ``repro check`` name resolution, its help text and the tests read.
FIXTURES: dict[str, AppBuilder] = {
    name: _fixture(name, iterations, body)
    for name, iterations, body in (
        ("synthetic-racy", 4, _racy),
        ("synthetic-lock-inversion", 2, _lock_inversion),
        ("synthetic-unheld-unlock", 1, _unheld_unlock),
        ("static-deadlock", 2, _static_deadlock),
        ("static-barrier-mismatch", 2, _barrier_mismatch),
        ("static-counter-in-cs", 2, _counter_in_cs),
    )
}


def build_synthetic(cs_fraction: float = 0.0, bus_lines: int = 0,
                    iterations: int = 128,
                    compute_instr: int = 20_000,
                    name: str = "synthetic") -> Application:
    """Build an application with a target critical-section fraction.

    ``cs_fraction`` is the single-threaded T_CS share (Eq. 3's input):
    the CS instruction count is derived from ``compute_instr``.
    ``bus_lines`` adds cold streaming loads per iteration.
    """
    if not 0.0 <= cs_fraction < 1.0:
        raise WorkloadError("cs_fraction must be in [0, 1)")
    cs_instr = int(compute_instr * cs_fraction / max(1e-9, 1.0 - cs_fraction))
    kernel = SyntheticKernel(SyntheticParams(
        iterations=iterations,
        compute_instr=compute_instr,
        lines_per_iteration=bus_lines,
        cs_instr=cs_instr,
    ), name=name)
    return Application.single(kernel, name=name)
