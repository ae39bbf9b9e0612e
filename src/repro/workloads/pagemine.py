"""PageMine — the paper's flagship synchronization-limited kernel (Fig. 1).

Derived from the MineBench ``rsearchk`` data-mining benchmark: for every
page of text, threads build local ASCII histograms over their slice of
the page in parallel, then each thread adds its local histogram into the
global histogram inside a critical section, followed by a barrier
(paper Figure 1).  The per-page critical-section work is constant per
thread, so total CS time grows linearly with the team size — the
archetypal Eq. 1 workload.

Paper input: 1000 pages of 5280 characters (66 lines x 80 chars), 128
histogram bins.  Repro input: 160 pages by default (scaled; the per-page
ratios, not the page count, set every result), same 5280-byte pages and
128 bins.  Figures 9 and 10 vary ``page_bytes`` from 1 KB to 25 KB.

The histogram is computed for real (``bincount`` over a deterministic
corpus) and checked by tests; each thread's merge tail is replayed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import WorkloadError
from repro.fdt.kernel import OpTable, TeamParallelKernel
from repro.fdt.runner import Application
from repro.isa.ops import Compute, Load, Op
from repro.runtime.parallel import static_chunk
from repro.workloads.base import (
    LINE,
    AddressSpace,
    Category,
    WorkloadSpec,
    merge_tail,
    register,
)

#: Calibrated per-line scan cost: ~3 instructions per character
#: (load byte, table index, increment) at 64 chars per line.
SCAN_INSTR_PER_LINE = 192
#: Calibrated merge cost: ~10 instructions per bin (load local, load
#: global, add, store, index arithmetic) at 16 four-byte bins per line.
MERGE_INSTR_PER_LINE = 160

_BINS = 128
_BIN_BYTES = 4
_HIST_BYTES = _BINS * _BIN_BYTES  # 512 B = 8 lines
#: Ops are immutable values, so each constant one is built once here.
_SCAN, _MERGE = Compute(SCAN_INSTR_PER_LINE), Compute(MERGE_INSTR_PER_LINE)


@dataclass(frozen=True, slots=True)
class PageMineParams:
    """Input set for PageMine."""

    num_pages: int = 160
    page_bytes: int = 5280
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_pages < 1:
            raise WorkloadError("PageMine needs at least one page")
        if self.page_bytes < LINE:
            raise WorkloadError("page must be at least one cache line")


class PageMineKernel(TeamParallelKernel):
    """``GetPageHistogram`` over every page (one iteration per page)."""

    name = "pagemine"

    def __init__(self, params: PageMineParams,
                 space: AddressSpace | None = None) -> None:
        self.params = params
        space = space or AddressSpace()
        self._pages_base = space.alloc(params.num_pages * params.page_bytes)
        # One local histogram per potential thread, each line-aligned and
        # padded to whole lines so teams never false-share locals.
        self._locals_base = space.alloc(64 * _HIST_BYTES)
        self._global_base = space.alloc(_HIST_BYTES)
        rng = np.random.default_rng(params.seed)
        #: The document: deterministic printable-ASCII text.
        self.corpus = rng.integers(
            0, _BINS, size=params.num_pages * params.page_bytes,
            dtype=np.uint8)
        #: The real global histogram, updated as iterations execute.
        self.global_histogram = np.zeros(_BINS, dtype=np.int64)
        self._tails = OpTable(self._merge_tail)

    @property
    def total_iterations(self) -> int:
        return self.params.num_pages

    def team_iteration(self, page: int, thread_id: int,
                       num_threads: int) -> list[Op]:
        size = self.params.page_bytes
        chunk = static_chunk(size, num_threads, thread_id, start=page * size)
        # Parallel part: count this thread's slice of the page for real;
        # its ops, new on every page, are a Load and the scan per line.
        self.global_histogram += np.bincount(
            self.corpus[chunk.start:chunk.stop], minlength=_BINS)
        base = self._pages_base
        first = chunk.start // LINE
        last = (chunk.stop - 1) // LINE if chunk else first - 1
        ops: list[Op] = [op for line in range(first, last + 1)
                         for op in (Load(base + line * LINE), _SCAN)]
        # Serial part: the merge tail, the same on every page.
        ops += self._tails[thread_id]
        return ops

    def _merge_tail(self, thread_id: int) -> Iterator[Op]:
        """Serial part: the critical section's merge (paper Figure 1)."""
        return merge_tail(self._locals_base + thread_id * _HIST_BYTES,
                          self._global_base, _HIST_BYTES, _MERGE)

    def expected_histogram(self) -> np.ndarray:
        """Ground truth for the full corpus (test oracle)."""
        return np.bincount(self.corpus, minlength=_BINS).astype(np.int64)


def build(scale: float = 1.0, page_bytes: int = 5280,
          seed: int = 42) -> Application:
    """PageMine application; ``scale`` shrinks the page count."""
    num_pages = max(16, int(160 * scale))
    kernel = PageMineKernel(PageMineParams(
        num_pages=num_pages, page_bytes=page_bytes, seed=seed))
    return Application.single(kernel, name="PageMine")


register(WorkloadSpec(
    name="PageMine",
    category=Category.CS_LIMITED,
    description="Data mining kernel (per-page ASCII histogram, rsearchk)",
    paper_input="1000 pages",
    repro_input="160 pages x 5280 B, 128 bins",
    build=build,
))
