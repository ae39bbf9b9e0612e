"""BScholes — Black-Scholes option pricing (CUDA SDK style), scalable.

Each option is priced independently with the closed-form Black-Scholes
formula — two cumulative-normal evaluations, exp/log/sqrt heavy — over
structure-of-arrays inputs.  Compute dominates the streaming reads, so
the kernel scales to all 32 cores; FDT must measure a low bus
utilization, take the cannot-saturate early-out, and choose 32 threads.

Paper input: the CUDA SDK configuration.  Repro input: 32K options in
blocks of 32 (1024 fine-grained iterations).  Prices are computed for
real (erf-based CND) and verified against put-call parity in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.typing import NDArray

from repro.errors import WorkloadError
from repro.fdt.kernel import DataParallelKernel
from repro.fdt.runner import Application
from repro.isa.ops import Load, Op, Store
from repro.workloads.base import LINE, AddressSpace, Category, WorkloadSpec, compute_ops, register

#: Per-option cost of the closed-form evaluation (two CNDs, exp, log).
OPTION_INSTR = 1000
_BLOCK = 32  # options per FDT iteration


#: Element-wise stdlib error function (numpy has none): a ufunc on object
#: arrays, without the per-call output probe of a vectorize wrapper.
_ERF = np.frompyfunc(math.erf, 1, 1)


def _cnd(x: NDArray[np.float64]) -> NDArray[np.float64]:
    """Cumulative normal distribution via the stdlib error function."""
    return 0.5 * (1.0 + _ERF(x / math.sqrt(2.0)).astype(np.float64))


@dataclass(frozen=True, slots=True)
class BScholesParams:
    """Input set for BScholes."""

    num_options: int = 32_768
    riskfree: float = 0.02
    seed: int = 13

    def __post_init__(self) -> None:
        if self.num_options < _BLOCK:
            raise WorkloadError("BScholes needs at least one block of options")


class BScholesKernel(DataParallelKernel):
    """One iteration = one block of 32 options."""

    name = "bscholes"

    def __init__(self, params: BScholesParams,
                 space: AddressSpace | None = None) -> None:
        self.params = params
        space = space or AddressSpace()
        n = params.num_options
        rng = np.random.default_rng(params.seed)
        #: SoA inputs, as in the CUDA sample.
        self.spot = rng.uniform(5.0, 30.0, n)
        self.strike = rng.uniform(1.0, 100.0, n)
        self.expiry = rng.uniform(0.25, 10.0, n)
        self.volatility = rng.uniform(0.05, 0.5, n)
        #: Outputs, filled in as iterations execute.
        self.call = np.zeros(n)
        self.put = np.zeros(n)
        # Five float32 input arrays plus two output arrays.
        self._in_bases = [space.alloc(n * 4) for _ in range(5)]
        self._out_bases = [space.alloc(n * 4) for _ in range(2)]

    @property
    def total_iterations(self) -> int:
        return self.params.num_options // _BLOCK

    def price_block(self, lo: int, hi: int) -> None:
        """The real closed-form pricing for options [lo, hi)."""
        s, k = self.spot[lo:hi], self.strike[lo:hi]
        t, v = self.expiry[lo:hi], self.volatility[lo:hi]
        r = self.params.riskfree
        sqrt_t = np.sqrt(t)
        d1 = (np.log(s / k) + (r + 0.5 * v * v) * t) / (v * sqrt_t)
        d2 = d1 - v * sqrt_t
        disc = np.exp(-r * t)
        self.call[lo:hi] = s * _cnd(d1) - k * disc * _cnd(d2)
        self.put[lo:hi] = k * disc * _cnd(-d2) - s * _cnd(-d1)

    def serial_iteration(self, block: int) -> Iterator[Op]:
        lo = block * _BLOCK
        hi = min(self.params.num_options, lo + _BLOCK)
        self.price_block(lo, hi)
        line_lo = lo * 4 // LINE * LINE
        line_hi = (hi - 1) * 4 // LINE * LINE
        for base in self._in_bases:
            for off in range(line_lo, line_hi + 1, LINE):
                yield Load(base + off)
        yield from compute_ops((hi - lo) * OPTION_INSTR)
        for base in self._out_bases:
            for off in range(line_lo, line_hi + 1, LINE):
                yield Store(base + off)


def build(scale: float = 1.0, seed: int = 13) -> Application:
    """BScholes application; ``scale`` shrinks the option count."""
    n = max(_BLOCK * 16, (int(32_768 * scale) // _BLOCK) * _BLOCK)
    kernel = BScholesKernel(BScholesParams(num_options=n, seed=seed))
    return Application.single(kernel, name="BScholes")


register(WorkloadSpec(
    name="BScholes",
    category=Category.SCALABLE,
    description="Black-Scholes option pricing (CUDA SDK)",
    paper_input="CUDA SDK configuration",
    repro_input="32K options, SoA float32, blocks of 32",
    build=build,
))
