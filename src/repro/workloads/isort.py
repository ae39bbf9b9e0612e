"""ISort — NAS-style integer (counting/bucket) sort, CS-limited.

Each ranking pass scans the key array building per-thread bucket counts
and folds them into the shared global bucket array inside a critical
section, with a barrier keeping the team in step — the classic NAS IS
structure.  The pass is *tiled*: one FDT iteration covers one tile of
the key array (scan + merge + barrier), giving the fine-grained loop
FDT's peeled training needs.  The merge is constant work per thread per
tile, so total critical-section time grows linearly with the team and
Eq. 1 applies; the paper finds the execution-time minimum at 7 threads,
which SAT predicts exactly.

Paper input: n = 64K keys.  Repro input: the same 64K keys, 128 buckets,
16 ranking passes of 10 tiles each; merge cost calibrated so
T_CS/T_NoCS ~ 2 % (P_CS ~ 7).  The bucket counts are computed for real
and the sorted order is verified by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import WorkloadError
from repro.fdt.kernel import TeamParallelKernel
from repro.fdt.runner import Application
from repro.isa.ops import BarrierWait, Compute, Load, Lock, Op, Store, Unlock
from repro.runtime.parallel import static_chunk
from repro.workloads.base import LINE, AddressSpace, Category, WorkloadSpec, register

#: ~16 keys per line, ~12 instructions per key (key extraction, shift,
#: bounds check, histogram increment).
SCAN_INSTR_PER_LINE = 196
#: ~16 buckets per line, ~21 instructions per bucket in the merge
#: (load local, add into global, partial rank prefix bookkeeping).
MERGE_INSTR_PER_LINE = 335

_MERGE_LOCK = 0
_TILE_BARRIER = 0
#: Ops are immutable values, so each constant one is built once here.
_SCAN, _MERGE = Compute(SCAN_INSTR_PER_LINE), Compute(MERGE_INSTR_PER_LINE)
_LOCK_MERGE, _UNLOCK_MERGE = Lock(_MERGE_LOCK), Unlock(_MERGE_LOCK)
_WAIT_TILE = BarrierWait(_TILE_BARRIER)
_BUCKETS = 128
_BUCKET_BYTES = _BUCKETS * 4  # 512 B = 8 lines


@dataclass(frozen=True, slots=True)
class ISortParams:
    """Input set for ISort."""

    num_keys: int = 65_536
    num_passes: int = 16
    tiles_per_pass: int = 10
    seed: int = 11

    def __post_init__(self) -> None:
        if self.num_keys < self.tiles_per_pass * 16:
            raise WorkloadError("ISort tiles must cover at least one line")
        if self.num_passes < 1 or self.tiles_per_pass < 1:
            raise WorkloadError("ISort needs at least one pass and tile")


class ISortKernel(TeamParallelKernel):
    """One iteration = one tile of one ranking pass."""

    name = "isort"

    def __init__(self, params: ISortParams,
                 space: AddressSpace | None = None) -> None:
        self.params = params
        space = space or AddressSpace()
        self._keys_base = space.alloc(params.num_keys * 4)
        self._locals_base = space.alloc(64 * _BUCKET_BYTES)
        self._global_base = space.alloc(_BUCKET_BYTES)
        rng = np.random.default_rng(params.seed)
        #: The keys being ranked (uniform in [0, buckets), NAS-IS style).
        self.keys = rng.integers(0, _BUCKETS, size=params.num_keys,
                                 dtype=np.int32)
        #: Global bucket counts accumulated by the first ranking pass.
        self.global_buckets = np.zeros(_BUCKETS, dtype=np.int64)

    @property
    def total_iterations(self) -> int:
        return self.params.num_passes * self.params.tiles_per_pass

    def _tile_keys(self, iteration: int) -> range:
        tile = iteration % self.params.tiles_per_pass
        return static_chunk(self.params.num_keys,
                            self.params.tiles_per_pass, tile)

    def team_iteration(self, iteration: int, thread_id: int,
                       num_threads: int) -> Iterator[Op]:
        tile_keys = self._tile_keys(iteration)
        chunk = static_chunk(len(tile_keys), num_threads, thread_id,
                             start=tile_keys.start)

        # Parallel part: count this thread's slice of the tile.
        local = np.bincount(self.keys[chunk.start:chunk.stop],
                            minlength=_BUCKETS).astype(np.int64)
        if len(chunk):
            lo_line = (self._keys_base + chunk.start * 4) // LINE * LINE
            hi_line = self._keys_base + (chunk.stop - 1) * 4
            for addr in range(lo_line, hi_line + 1, LINE):
                yield Load(addr)
                yield _SCAN

        # Serial part: fold local buckets into the global array.  Only
        # the first pass mutates the real counts (later passes re-rank
        # identically, as NAS IS does for timing repeatability).
        local_base = self._locals_base + thread_id * _BUCKET_BYTES
        yield _LOCK_MERGE
        if iteration < self.params.tiles_per_pass:
            self.global_buckets += local
        for off in range(0, _BUCKET_BYTES, LINE):
            yield Load(local_base + off)
            yield _MERGE
            # Read-modify-write via the store's read-for-ownership.
            yield Store(self._global_base + off)
        yield _UNLOCK_MERGE

        yield _WAIT_TILE

    def ranked_keys(self) -> np.ndarray:
        """The keys in sorted order per the merged bucket counts."""
        return np.repeat(np.arange(_BUCKETS), self.global_buckets)

    def expected_sorted(self) -> np.ndarray:
        """Ground truth (test oracle)."""
        return np.sort(self.keys).astype(np.int64)


def build(scale: float = 1.0, seed: int = 11) -> Application:
    """ISort application; ``scale`` shrinks the pass count."""
    passes = max(4, int(16 * scale))
    kernel = ISortKernel(ISortParams(num_passes=passes, seed=seed))
    return Application.single(kernel, name="ISort")


register(WorkloadSpec(
    name="ISort",
    category=Category.CS_LIMITED,
    description="Integer bucket sort (NAS IS tiled ranking passes)",
    paper_input="n = 64K",
    repro_input="n = 64K keys, 128 buckets, 16 passes x 10 tiles",
    build=build,
))
