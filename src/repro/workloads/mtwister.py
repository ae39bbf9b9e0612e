"""MTwister — Mersenne-Twister generation + Box-Muller transform.

Two data-parallel kernels, as in the CUDA SDK sample the paper uses
(Section 5.3):

* **Kernel 1** generates uniform random numbers with the Mersenne
  Twister and writes them to a large array.  Generation is compute-heavy
  (state updates, tempering, float conversion), so despite the streaming
  writes its bandwidth demand stays below saturation at 32 threads — the
  kernel scales all the way.
* **Kernel 2** applies the Box-Muller transformation, reading the
  uniforms back (they no longer fit in the L3: the data set exceeds it)
  and writing Gaussians.  Its read+write traffic saturates the bus at
  ~12 threads.

The two kernels want *different* thread counts (32 and 12), which is the
paper's killer case against any static policy: the oracle must pick one
number for the whole program, while FDT retrains per kernel and averages
~21 threads — 31 % less power at the same execution time (Figure 15).

Paper input: the CUDA SDK configuration.  Repro input: 1.25M doubles
(10 MB, exceeds the 8 MB L3).  Both kernels compute real values with
numpy's MT19937 and a real Box-Muller, verified by tests.
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

#: MT generation cost per line of 8 doubles (state update, tempering,
#: integer-to-double conversion; amortized state-twist included).
GEN_INSTR_PER_LINE = 3700
#: Box-Muller cost per line (log/sqrt/sin/cos per pair).
BOXMULLER_INSTR_PER_LINE = 2060
#: Ops are immutable values, so each constant one is built once here.
_GENERATE = Compute(GEN_INSTR_PER_LINE)
_BOX_MULLER = Compute(BOXMULLER_INSTR_PER_LINE)
_LINES_PER_BLOCK = 64
_DOUBLES_PER_LINE = LINE // 8


@dataclass(frozen=True, slots=True)
class MTwisterParams:
    """Input set for MTwister."""

    n_numbers: int = 1_310_720  # 10 MB of doubles; exceeds the 8 MB L3
    seed: int = 4357

    def __post_init__(self) -> None:
        if self.n_numbers < _LINES_PER_BLOCK * _DOUBLES_PER_LINE:
            raise WorkloadError("MTwister input must cover a block")


class _State:
    """Data shared by the two kernels (the uniforms array)."""

    def __init__(self, params: MTwisterParams) -> None:
        self.params = params
        space = AddressSpace()
        self.n_lines = (params.n_numbers * 8 + LINE - 1) // LINE
        self.uniforms_base = space.alloc(self.n_lines * LINE)
        self.gauss_base = space.alloc(self.n_lines * LINE)
        rng = np.random.Generator(np.random.MT19937(params.seed))
        #: The real Mersenne-Twister stream.
        self.uniforms = rng.random(params.n_numbers)
        #: Box-Muller outputs, filled in by kernel 2.
        self.gaussians = np.zeros(params.n_numbers)


class MTGenKernel(DataParallelKernel):
    """Kernel 1: generate uniforms and stream them out."""

    name = "mtwister-gen"

    def __init__(self, state: _State) -> None:
        self.state = state

    @property
    def total_iterations(self) -> int:
        return self.state.n_lines // _LINES_PER_BLOCK

    def serial_iteration(self, block: int) -> Iterator[Op]:
        first = block * _LINES_PER_BLOCK
        for line in range(first, first + _LINES_PER_BLOCK):
            yield _GENERATE
            yield Store(self.state.uniforms_base + line * LINE)


class BoxMullerKernel(DataParallelKernel):
    """Kernel 2: read uniforms back, write Gaussians."""

    name = "mtwister-boxmuller"

    def __init__(self, state: _State) -> None:
        self.state = state

    @property
    def total_iterations(self) -> int:
        return self.state.n_lines // _LINES_PER_BLOCK

    def serial_iteration(self, block: int) -> Iterator[Op]:
        st = self.state
        first = block * _LINES_PER_BLOCK
        lo = first * _DOUBLES_PER_LINE
        hi = min(st.params.n_numbers,
                 (first + _LINES_PER_BLOCK) * _DOUBLES_PER_LINE)
        u = st.uniforms[lo:hi]
        # Real Box-Muller on consecutive pairs (u1, u2).
        u1 = np.clip(u[0::2], 1e-300, None)
        u2 = u[1::2]
        n = min(len(u1), len(u2))
        r = np.sqrt(-2.0 * np.log(u1[:n]))
        st.gaussians[lo:lo + n] = r * np.cos(2.0 * np.pi * u2[:n])
        st.gaussians[lo + n:lo + 2 * n:1] = 0.0  # second halves unused
        for line in range(first, first + _LINES_PER_BLOCK):
            yield Load(st.uniforms_base + line * LINE)
            yield _BOX_MULLER
            yield Store(st.gauss_base + line * LINE)


def build(scale: float = 1.0, seed: int = 4357) -> Application:
    """MTwister application: generation kernel then Box-Muller kernel.

    ``scale`` shrinks the array; note that below ~0.8 the data set fits
    in the baseline L3 and kernel 2 stops being bandwidth-limited, so
    figure-level runs should stay at scale >= 0.8 (tests that only need
    the two-kernel structure can go smaller).
    """
    n = max(_LINES_PER_BLOCK * _DOUBLES_PER_LINE * 4, int(1_310_720 * scale))
    state = _State(MTwisterParams(n_numbers=n, seed=seed))
    return Application(name="MTwister",
                       kernels=(MTGenKernel(state), BoxMullerKernel(state)))


register(WorkloadSpec(
    name="MTwister",
    category=Category.BW_LIMITED,
    description="Mersenne-Twister PRNG + Box-Muller (two kernels)",
    paper_input="CUDA SDK configuration",
    repro_input="1.31M doubles (10 MB, exceeds L3)",
    build=build,
))
