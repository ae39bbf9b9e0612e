"""SConv — 2D separable convolution (CUDA SDK style), scalable.

A large-radius Gaussian blur factored into a row pass and a column pass
(two kernels, like the CUDA ``convolutionSeparable`` sample).  With a
64-tap filter the arithmetic per pixel dwarfs the streaming traffic, so
both passes scale to 32 threads and FDT's BAT early-out must fire.

Paper input: 512x512.  Repro input: 512x512 float32, radius 64.  The
convolution really runs (numpy correlate per row/column slab) and tests
verify the two-pass result against a direct separable evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import WorkloadError
from repro.fdt.kernel import DataParallelKernel
from repro.fdt.runner import Application
from repro.isa.ops import Compute, Load, Op, Store
from repro.workloads.base import LINE, AddressSpace, Category, WorkloadSpec, register

#: Per-line (16 pixels) cost of a 129-tap dot product per pixel.
CONV_INSTR_PER_LINE = 4500
#: Ops are immutable values, so each constant one is built once here.
_CONVOLVE = Compute(CONV_INSTR_PER_LINE)


@dataclass(frozen=True, slots=True)
class SConvParams:
    """Input set for SConv."""

    size: int = 512
    radius: int = 64
    seed: int = 37

    def __post_init__(self) -> None:
        if self.size * 4 < LINE:
            raise WorkloadError("image rows must span at least one line")
        if self.radius < 1:
            raise WorkloadError("kernel radius must be positive")


class _State:
    """Shared image buffers for the two passes."""

    def __init__(self, params: SConvParams) -> None:
        self.params = params
        space = AddressSpace()
        nbytes = params.size * params.size * 4
        self.in_base = space.alloc(nbytes)
        self.tmp_base = space.alloc(nbytes)
        self.out_base = space.alloc(nbytes)
        rng = np.random.default_rng(params.seed)
        self.image = rng.standard_normal((params.size,) * 2, dtype=np.float32)
        x = np.arange(-params.radius, params.radius + 1)
        kern = np.exp(-0.5 * (x / (params.radius / 3.0)) ** 2)
        self.kernel = (kern / kern.sum()).astype(np.float32)
        self.temp = np.zeros_like(self.image)
        self.output = np.zeros_like(self.image)

    def expected(self) -> np.ndarray:
        """Direct two-pass separable convolution (test oracle)."""
        tmp = np.apply_along_axis(
            lambda r: np.convolve(r, self.kernel, mode="same"), 1, self.image)
        return np.apply_along_axis(
            lambda c: np.convolve(c, self.kernel, mode="same"), 0, tmp)


class _PassKernel(DataParallelKernel):
    """One iteration = one row (or column slab) of one pass."""

    def __init__(self, state: _State, axis: int) -> None:
        self.state = state
        self.axis = axis  # 0: row pass (in -> tmp); 1: column pass (tmp -> out)
        self.name = "sconv-rows" if axis == 0 else "sconv-cols"

    #: Loop granularity: each row/column is processed as two segments,
    #: keeping FDT's peeled training a tiny fraction of the pass.
    SEGMENTS = 2

    @property
    def total_iterations(self) -> int:
        return self.state.params.size * self.SEGMENTS

    def serial_iteration(self, iteration: int) -> Iterator[Op]:
        st = self.state
        size = st.params.size
        index, part = divmod(iteration, self.SEGMENTS)
        if part == 0:
            if self.axis == 0:
                st.temp[index] = np.convolve(st.image[index], st.kernel,
                                             mode="same")
            else:
                st.output[:, index] = np.convolve(st.temp[:, index], st.kernel,
                                                  mode="same")
        src, dst = ((st.in_base, st.tmp_base) if self.axis == 0
                    else (st.tmp_base, st.out_base))
        row_bytes = size * 4
        seg_bytes = row_bytes // self.SEGMENTS
        lo = part * seg_bytes
        hi = lo + seg_bytes if part < self.SEGMENTS - 1 else row_bytes
        for off in range(lo, hi, LINE):
            yield Load(src + index * row_bytes + off)
            yield _CONVOLVE
            yield Store(dst + index * row_bytes + off)


def build(scale: float = 1.0, seed: int = 37) -> Application:
    """SConv application; ``scale`` shrinks the image edge (the filter
    radius shrinks with it so the kernel always fits inside a row)."""
    size = max(128, (int(512 * scale) // 16) * 16)
    radius = min(64, size // 4)
    state = _State(SConvParams(size=size, radius=radius, seed=seed))
    return Application(name="SConv",
                       kernels=(_PassKernel(state, 0), _PassKernel(state, 1)))


register(WorkloadSpec(
    name="SConv",
    category=Category.SCALABLE,
    description="2D separable convolution, radius 64 (CUDA SDK)",
    paper_input="512x512",
    repro_input="512x512 float32, 129-tap separable Gaussian",
    build=build,
))
