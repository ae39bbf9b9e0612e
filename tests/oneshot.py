"""Test instrument: FDT on non-iterative kernels (paper Section 9).

"For non-iterative kernels, the compiler can generate a specialized
training loop for estimating application behavior."  FDT as described
needs a loop: it peels leading iterations, trains on them, and executes
the rest.  A one-shot kernel (a single big parallel region) has no
iterations to peel — so the compiler synthesizes a miniature *sample*
of the kernel's behaviour and FDT trains on repetitions of that sample
before running the real work once with the decision.

:class:`OneShotKernel` is that transform: it presents the synthesized
sample as the kernel's leading iterations and the real one-shot work as
the final "iteration", so the unmodified :class:`~repro.fdt.policies.
FdtPolicy` machinery (training rules, estimation, execution) applies.
The sample must be representative — same critical-section pattern, same
per-byte compute — which in the compiler story is by construction (it
is generated from the same body).  ``tests/test_oneshot.py`` runs
FDT on such kernels to check the Section 9 claim.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.errors import WorkloadError
from repro.fdt.kernel import Kernel
from repro.isa.ops import Op
from repro.isa.program import ProgramFactory

#: A one-shot work body: ``(thread_id, num_threads) -> op generator``.
OneShotBody = Callable[[int, int], Iterator[Op]]
#: A synthesized training sample: ``(sample_index) -> op generator``.
SampleBody = Callable[[int], Iterator[Op]]


class OneShotKernel(Kernel):
    """Adapt a single-shot parallel region to FDT's loop interface.

    Args:
        name: kernel name.
        work: the real one-shot body, invoked once per thread with
            ``(thread_id, num_threads)``.
        sample: the compiler-synthesized training iteration; invoked
            with a sample index so samples can vary realistically.
        num_samples: how many training iterations exist before the real
            work.  Must leave FDT's training cap (5 iterations at repro
            scale) strictly inside the samples, so the real work is
            never consumed by training.
    """

    def __init__(self, name: str, work: OneShotBody, sample: SampleBody,
                 num_samples: int = 16) -> None:
        if num_samples < 10:
            raise WorkloadError(
                "need >= 10 samples so training never reaches the real work")
        self.name = name
        self._work = work
        self._sample = sample
        self._num_samples = num_samples

    @property
    def total_iterations(self) -> int:
        return self._num_samples + 1

    def serial_iteration(self, i: int) -> Iterator[Op]:
        if i < self._num_samples:
            return self._sample(i)
        # The one-shot body, run by a team of one (training never gets
        # here: the cap is at most half the loop).
        return self._work(0, 1)

    def factories(self, iterations: range,
                  num_threads: int) -> list[ProgramFactory]:
        self.validate_team(num_threads)
        sample_range = range(iterations.start,
                             min(iterations.stop, self._num_samples))
        run_work = iterations.stop > self._num_samples

        def factory(thread_id: int, team: int) -> Iterator[Op]:
            if thread_id == 0:
                for i in sample_range:
                    yield from self._sample(i)
            if run_work:
                yield from self._work(thread_id, team)

        return [factory] * num_threads
