"""The types of thread programs.

A *thread program* is any iterator/generator yielding :class:`~repro.isa.ops.Op`
instances.  A *program factory* is a callable ``(thread_id, num_threads) ->
ThreadProgram``; workloads hand factories to the runtime, which instantiates
one program per spawned thread.
"""

from __future__ import annotations

from typing import Callable, Generator, Iterator

from repro.isa.ops import Op

# A thread program may be a plain iterator of ops, or a generator that also
# receives counter values back through ``send`` after a ReadCounter op.
ThreadProgram = Iterator[Op] | Generator[Op, int, None]

ProgramFactory = Callable[[int, int], ThreadProgram]
