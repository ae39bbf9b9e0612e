"""EP — embarrassingly-parallel pseudo-random number generation (NAS EP).

A linear-congruential generator produces blocks of pseudo-random numbers
and tallies per-block statistics (the NAS EP Gaussian-pair counts) into
a small shared table inside a critical section, with a barrier per
block.  The generation itself is pure compute — no memory traffic to
speak of — so the *only* scaling limiter is the critical section, and
it is small: the paper reports the execution-time minimum at 4 threads
with SAT predicting 5, the closest call in the evaluation.

Paper input: 262K numbers.  Repro input: the same 262 144 numbers in
128 blocks of 2048; tally cost calibrated so T_CS/T_NoCS ~ 4 %
(P_CS ~ 5).  The LCG stream and tallies are computed for real and checked
by tests; the ops depend only on (thread, team) and are replayed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import WorkloadError
from repro.fdt.kernel import OpTable, TeamParallelKernel
from repro.fdt.runner import Application
from repro.isa.ops import BarrierWait, Compute, Lock, Op, Store, Unlock
from repro.runtime.parallel import static_chunk
from repro.workloads.base import LINE, AddressSpace, Category, WorkloadSpec, compute_ops, register

#: LCG step + scaling + tally classification per number.
GEN_INSTR_PER_NUMBER = 12
#: Tally merge: update the 10-bin table plus running sums.
TALLY_INSTR = 950

_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_MASK = (1 << 64) - 1


@dataclass(frozen=True, slots=True)
class EpParams:
    """Input set for EP."""

    num_numbers: int = 262_144
    block_size: int = 2048
    seed: int = 271_828_183

    def __post_init__(self) -> None:
        if self.num_numbers < self.block_size:
            raise WorkloadError("EP needs at least one full block")
        if self.block_size < 1:
            raise WorkloadError("EP block size must be positive")


def _lcg_block(seed: int, start: int, count: int) -> np.ndarray:
    """Numbers ``start .. start+count`` of the LCG stream as [0,1) floats."""
    # x_n = A^n x_0 + C (A^n - 1)/(A - 1) mod 2^64; exact with A^n mod (A-1)2^64.
    series = (pow(_LCG_A, start, (_LCG_A - 1) << 64) - 1) // (_LCG_A - 1)
    out = np.empty(count, dtype=np.uint64)
    out[:1] = (pow(_LCG_A, start, 1 << 64) * seed + _LCG_C * series) & _MASK
    # Fill by doubling: with (a, c) the step over f numbers,
    # x_{i+f} = a x_i + c is one wrapping uint64 expression on out[:f].
    a, c, f = _LCG_A, _LCG_C, 1
    while f < count:
        k = min(f, count - f)
        out[f:f + k] = out[:k] * np.uint64(a) + np.uint64(c)
        a, c, f = (a * a) & _MASK, (c * (a + 1)) & _MASK, f + k
    return out.astype(np.float64) / 2.0**64


class EpKernel(TeamParallelKernel):
    """One iteration = one block of generated numbers plus its tally."""

    name = "ep"

    def __init__(self, params: EpParams,
                 space: AddressSpace | None = None) -> None:
        self.params = params
        space = space or AddressSpace()
        self._tally_base = space.alloc(4 * LINE)
        #: Real tally: counts of numbers falling in each of 10 decades.
        self.tally = np.zeros(10, dtype=np.int64)
        self.sum = 0.0
        #: ``(block, values)`` of the last block generated; the team's
        #: threads slice their chunks from it (docs/workloads.md).
        self._block = (-1, np.empty(0))
        self._ops = OpTable(self._block_ops)

    @property
    def total_iterations(self) -> int:
        return self.params.num_numbers // self.params.block_size

    def team_iteration(self, block: int, thread_id: int,
                       num_threads: int) -> tuple[Op, ...]:
        size = self.params.block_size
        chunk = static_chunk(size, num_threads, thread_id)
        # The real values: this thread's share of the block and its tally.
        if self._block[0] != block:
            self._block = (block, _lcg_block(self.params.seed, block * size, size))
        values = self._block[1][chunk.start:chunk.stop]
        self.tally += np.bincount((values * 10).astype(int), minlength=10)
        self.sum += float(values.sum())
        return self._ops[thread_id, num_threads]

    def _block_ops(self, key: tuple[int, int]) -> Iterator[Op]:
        """A thread's ops for one block, which depend on (thread, team)."""
        thread_id, num_threads = key
        # Parallel part: generate this thread's share of the block.
        chunk = static_chunk(self.params.block_size, num_threads, thread_id)
        yield from compute_ops(len(chunk) * GEN_INSTR_PER_NUMBER)

        # Serial part: fold the block statistics into the shared table
        # under lock 0, then wait for the team at barrier 0.
        yield Lock(0)
        for k in range(3):
            yield Compute(TALLY_INSTR // 3)
            # Read-modify-write via the store's read-for-ownership.
            yield Store(self._tally_base + k * LINE)
        yield Unlock(0)
        yield BarrierWait(0)

    def expected_tally(self, iterations: int | None = None) -> np.ndarray:
        """Ground truth tally over the first ``iterations`` blocks."""
        n = (iterations if iterations is not None
             else self.total_iterations) * self.params.block_size
        values = _lcg_block(self.params.seed, 0, n)
        return np.bincount((values * 10).astype(int), minlength=10)


def build(scale: float = 1.0, seed: int = 271_828_183) -> Application:
    """EP application; ``scale`` shrinks the number count."""
    numbers = max(24_576, int(262_144 * scale))
    kernel = EpKernel(EpParams(num_numbers=numbers, seed=seed))
    return Application.single(kernel, name="EP")


register(WorkloadSpec(
    name="EP",
    category=Category.CS_LIMITED,
    description="Linear-congruential PRNG with shared tally (NAS EP)",
    paper_input="262K numbers",
    repro_input="262 144 numbers, 128 blocks of 2048",
    build=build,
))
