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
T_CS/T_NoCS ~ 2 % (P_CS ~ 7).  Tests verify the first pass's real bucket
counts; every pass replays the same (tile, thread, team) op tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import WorkloadError
from repro.fdt.kernel import OpTable, TeamParallelKernel
from repro.fdt.runner import Application
from repro.isa.ops import Compute, Load, Op
from repro.runtime.parallel import static_chunk, static_chunks
from repro.workloads.base import LINE, AddressSpace, Category, WorkloadSpec, merge_tail, register

#: ~16 keys per line, ~12 instructions per key (key extraction, shift,
#: bounds check, histogram increment).
SCAN_INSTR_PER_LINE = 196
#: ~16 buckets per line, ~21 instructions per bucket in the merge
#: (load local, add into global, partial rank prefix bookkeeping).
MERGE_INSTR_PER_LINE = 335

#: Ops are immutable values, so each constant one is built once here.
_SCAN, _MERGE = Compute(SCAN_INSTR_PER_LINE), Compute(MERGE_INSTR_PER_LINE)
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
        self._tiles = static_chunks(params.num_keys, params.tiles_per_pass)
        self._ops = OpTable(self._tile_ops)

    @property
    def total_iterations(self) -> int:
        return self.params.num_passes * self.params.tiles_per_pass

    def _thread_keys(self, tile: int, thread_id: int,
                     num_threads: int) -> range:
        keys = self._tiles[tile]
        return static_chunk(len(keys), num_threads, thread_id, keys.start)

    def team_iteration(self, iteration: int, thread_id: int,
                       num_threads: int) -> tuple[Op, ...]:
        tiles = self.params.tiles_per_pass
        # Only the first pass counts the real keys (later passes re-rank
        # identically, as NAS IS does for timing repeatability).
        if iteration < tiles:
            mine = self._thread_keys(iteration, thread_id, num_threads)
            self.global_buckets += np.bincount(
                self.keys[mine.start:mine.stop], minlength=_BUCKETS)
        return self._ops[iteration % tiles, thread_id, num_threads]

    def _tile_ops(self, key: tuple[int, int, int]) -> Iterator[Op]:
        """A thread's ops for one (tile, thread, team) shape."""
        tile, thread_id, num_threads = key
        chunk = self._thread_keys(tile, thread_id, num_threads)
        # Parallel part: count this thread's slice of the tile.
        if len(chunk):
            lo_line = (self._keys_base + chunk.start * 4) // LINE * LINE
            hi_line = self._keys_base + (chunk.stop - 1) * 4
            for addr in range(lo_line, hi_line + 1, LINE):
                yield Load(addr)
                yield _SCAN

        # Serial part: fold local buckets into the global array.
        yield from merge_tail(self._locals_base + thread_id * _BUCKET_BYTES,
                              self._global_base, _BUCKET_BYTES, _MERGE)

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
