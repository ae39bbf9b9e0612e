"""Threading runtime executed *inside* the simulated machine.

This is the library-level support the paper says FDT needs ("minimal
support from the threading library"): spawning a team of threads pinned
one-per-core, FIFO-granted locks for critical sections, sense-reversing
barriers, and the ability to pick a different ``num_threads`` for every
parallel region — the OpenMP ``num_threads`` clause analogue the paper
uses to act on FDT's decision.
"""

from repro.runtime.locks import LockManager
from repro.runtime.barriers import BarrierManager
from repro.runtime.parallel import static_chunk, static_chunks

__all__ = ["LockManager", "BarrierManager", "static_chunk", "static_chunks"]
