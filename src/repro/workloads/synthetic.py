"""Synthetic kernels with dial-a-limiter knobs.

The twelve Table 2 workloads are fixed points; these kernels let tests,
ablations, and users place a kernel *anywhere* in the (critical-section,
bandwidth) plane:

* ``cs_instr`` — instructions inside a per-iteration critical section
  (drives Eq. 1's ``T_CS``);
* ``lines_per_iteration`` + ``reuse`` — streaming loads (cold misses
  when ``reuse=False``) driving bus demand (Eq. 4's ``BU_1``);
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
from repro.fdt.kernel import TeamParallelKernel
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
from repro.runtime.parallel import static_chunk
from repro.workloads.base import LINE, AddressSpace

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
    #: Cache lines streamed per iteration (split by the team).
    lines_per_iteration: int = 0
    #: Re-read the same lines every iteration (True: warm after the
    #: first pass) or stream fresh lines (False: every load misses).
    reuse: bool = False
    #: Instructions inside the per-thread critical section.
    cs_instr: int = 0
    #: Shared lines written inside the critical section (ping-pong).
    cs_lines: int = 1

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise WorkloadError("need at least one iteration")
        if min(self.compute_instr, self.lines_per_iteration,
               self.cs_instr, self.cs_lines) < 0:
            raise WorkloadError("knobs must be non-negative")


class SyntheticKernel(TeamParallelKernel):
    """A Figure-1-shaped kernel with fully parameterized costs."""

    def __init__(self, params: SyntheticParams,
                 name: str = "synthetic") -> None:
        self.params = params
        self.name = name
        space = AddressSpace()
        stream_bytes = max(LINE, params.lines_per_iteration * LINE)
        if not params.reuse:
            stream_bytes *= params.iterations
        self._stream_base = space.alloc(stream_bytes)
        self._shared_base = space.alloc(max(1, params.cs_lines) * LINE)

    @property
    def total_iterations(self) -> int:
        return self.params.iterations

    def team_iteration(self, iteration: int, thread_id: int,
                       num_threads: int) -> Iterator[Op]:
        p = self.params

        # Parallel part: streaming loads plus compute, split by the team.
        lines = static_chunk(p.lines_per_iteration, num_threads, thread_id)
        offset = 0 if p.reuse else iteration * p.lines_per_iteration
        for k in lines:
            yield Load(self._stream_base + (offset + k) * LINE)
        instr = static_chunk(p.compute_instr, num_threads, thread_id)
        remaining = len(instr)
        while remaining > 0:
            yield Compute(min(remaining, 4096))
            remaining -= 4096

        # Critical section: constant per-thread work on shared lines.
        if p.cs_instr:
            yield _LOCK_CS
            per_line = max(1, p.cs_instr // max(1, p.cs_lines))
            for k in range(p.cs_lines):
                yield Compute(per_line)
                yield Store(self._shared_base + k * LINE)
            yield _UNLOCK_CS

        yield _WAIT


# -- sanitizer positive controls ------------------------------------------
#
# Deliberately broken kernels used as the thread sanitizer's fixtures
# (repro.check): each one must trip exactly the analysis it is named
# for.  They are *not* registered in the Table 2 roster; ``repro check``
# resolves them by fixture name.

class RacyKernel(TeamParallelKernel):
    """Unprotected read-modify-write of one shared line (a data race).

    Every thread loads and stores the same shared address each iteration
    with no lock held, so the lockset detector must report an
    empty-lockset write-write race on ``shared_addr``.
    """

    name = "synthetic-racy"

    def __init__(self, iterations: int = 4) -> None:
        self._iterations = iterations
        space = AddressSpace()
        #: The contended address, exposed so tests can assert the
        #: finding names it.
        self.shared_addr = space.alloc(LINE)

    @property
    def total_iterations(self) -> int:
        return self._iterations

    def team_iteration(self, iteration: int, thread_id: int,
                       num_threads: int) -> Iterator[Op]:
        # Skew the threads a little so accesses interleave rather than
        # proceeding in lockstep (the race is there either way).
        yield Compute(40 + 14 * thread_id)
        yield Load(self.shared_addr)
        yield Compute(20)
        yield Store(self.shared_addr)  # no lock: the seeded race
        yield _WAIT


class LockInversionKernel(TeamParallelKernel):
    """Opposite lock-acquisition orders on two locks (potential deadlock).

    Even threads take lock 0 then lock 1; odd threads take lock 1 then
    lock 0.  The odd threads are staggered far enough behind that the
    FIFO grant order dodges the deadlock *this run* — exactly the latent
    bug the lock-order analysis exists to catch (edges 0->1 and 1->0
    form a cycle).  The shared store is protected by both locks, so no
    race is reported.
    """

    name = "synthetic-lock-inversion"

    _LOCK_A = 0
    _LOCK_B = 1
    #: Instructions of head start the even threads get; at 2-wide issue
    #: this dwarfs the whole critical region, so the opposite-order
    #: acquires never actually overlap.
    _STAGGER_INSTR = 40_000

    def __init__(self, iterations: int = 2) -> None:
        self._iterations = iterations
        space = AddressSpace()
        self.shared_addr = space.alloc(LINE)

    @property
    def total_iterations(self) -> int:
        return self._iterations

    def team_iteration(self, iteration: int, thread_id: int,
                       num_threads: int) -> Iterator[Op]:
        if thread_id % 2 == 0:
            first, second = self._LOCK_A, self._LOCK_B
        else:
            first, second = self._LOCK_B, self._LOCK_A
            yield Compute(self._STAGGER_INSTR)
        yield Lock(first)
        yield Compute(10)
        yield Lock(second)
        yield Store(self.shared_addr)
        yield Unlock(second)
        yield Unlock(first)
        yield _WAIT


class UnheldUnlockKernel(TeamParallelKernel):
    """Releases a lock it never acquired (a discipline violation).

    The lock manager aborts the run when the Unlock is serviced; the
    sanitizer's discipline lint records the ``unlock-of-unheld`` finding
    just before that happens.
    """

    name = "synthetic-unheld-unlock"

    def __init__(self, iterations: int = 1) -> None:
        self._iterations = iterations

    @property
    def total_iterations(self) -> int:
        return self._iterations

    def team_iteration(self, iteration: int, thread_id: int,
                       num_threads: int) -> Iterator[Op]:
        yield Compute(50)
        yield _UNLOCK_CS  # never acquired
        yield _WAIT


def build_racy(scale: float = 1.0) -> Application:
    """The race positive control (``scale`` accepted for CLI symmetry)."""
    kernel = RacyKernel()
    return Application.single(kernel)


def build_lock_inversion(scale: float = 1.0) -> Application:
    """The lock-order-inversion positive control."""
    kernel = LockInversionKernel()
    return Application.single(kernel)


def build_unheld_unlock(scale: float = 1.0) -> Application:
    """The unlock-without-hold positive control."""
    kernel = UnheldUnlockKernel()
    return Application.single(kernel)


def sanitizer_fixtures() -> dict[str, Callable[[float], Application]]:
    """Fixture name -> builder, for ``repro check`` name resolution."""
    return {
        "synthetic-racy": build_racy,
        "synthetic-lock-inversion": build_lock_inversion,
        "synthetic-unheld-unlock": build_unheld_unlock,
    }


# -- static-analyzer positive controls ------------------------------------
#
# Seeded defects the *static* analyzer (repro.check.static) must prove
# from the op streams alone.  Each is arranged so a dynamic run dodges
# or survives the defect — the point is that ahead-of-run analysis
# catches what one interleaving may not.

class StaticDeadlockKernel(TeamParallelKernel):
    """Three locks acquired in a rotating order (a 3-cycle).

    Thread ``t`` takes lock ``t % 3`` then lock ``(t + 1) % 3``, so the
    team's acquires-while-holding edges form the cycle 0->1->2->0.  The
    threads are staggered so far apart that no two critical regions ever
    overlap in a real run — the deadlock is latent, provable only from
    the streams (finding ``static-lock-order-cycle``).
    """

    name = "static-deadlock"

    _STAGGER_INSTR = 40_000

    def __init__(self, iterations: int = 2) -> None:
        self._iterations = iterations
        space = AddressSpace()
        self.shared_addr = space.alloc(LINE)

    @property
    def total_iterations(self) -> int:
        return self._iterations

    def team_iteration(self, iteration: int, thread_id: int,
                       num_threads: int) -> Iterator[Op]:
        first = thread_id % 3
        second = (thread_id + 1) % 3
        yield Compute(self._STAGGER_INSTR * thread_id + 10)
        yield Lock(first)
        yield Compute(10)
        yield Lock(second)
        yield Store(self.shared_addr)
        yield Unlock(second)
        yield Unlock(first)
        yield _WAIT


class BarrierMismatchKernel(TeamParallelKernel):
    """Thread 0 arrives at one more barrier than the rest of the team.

    With two or more threads the team can never complete barrier 1 —
    a guaranteed hang the static barrier pass proves as
    ``static-barrier-count-mismatch`` before any cycle simulates.
    """

    name = "static-barrier-mismatch"

    def __init__(self, iterations: int = 2) -> None:
        self._iterations = iterations

    @property
    def total_iterations(self) -> int:
        return self._iterations

    def team_iteration(self, iteration: int, thread_id: int,
                       num_threads: int) -> Iterator[Op]:
        yield Compute(100)
        yield _WAIT
        if thread_id == 0:
            yield BarrierWait(_BARRIER + 1)  # nobody else ever arrives


class CounterInCsKernel(TeamParallelKernel):
    """Reads the cycle counter while holding the critical-section lock.

    Runs fine — but the measurement folds instrumentation overhead into
    T_CS itself (Section 4.2.1 brackets critical sections from the
    outside), so the static lint flags it as ``static-counter-in-cs``.
    """

    name = "static-counter-in-cs"

    def __init__(self, iterations: int = 2) -> None:
        self._iterations = iterations
        space = AddressSpace()
        self.shared_addr = space.alloc(LINE)

    @property
    def total_iterations(self) -> int:
        return self._iterations

    def team_iteration(self, iteration: int, thread_id: int,
                       num_threads: int) -> Iterator[Op]:
        yield Compute(200)
        yield _LOCK_CS
        _ = yield ReadCounter(CounterKind.CYCLES)  # the seeded defect
        yield Compute(50)
        yield Store(self.shared_addr)
        yield _UNLOCK_CS
        yield _WAIT


def build_static_deadlock(scale: float = 1.0) -> Application:
    """The latent-lock-cycle positive control."""
    return Application.single(StaticDeadlockKernel())


def build_barrier_mismatch(scale: float = 1.0) -> Application:
    """The barrier-count-mismatch positive control."""
    return Application.single(BarrierMismatchKernel())


def build_counter_in_cs(scale: float = 1.0) -> Application:
    """The counter-read-in-critical-section positive control."""
    return Application.single(CounterInCsKernel())


def static_fixtures() -> dict[str, Callable[[float], Application]]:
    """Fixture name -> builder, for static-analyzer name resolution."""
    return {
        "static-deadlock": build_static_deadlock,
        "static-barrier-mismatch": build_barrier_mismatch,
        "static-counter-in-cs": build_counter_in_cs,
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
