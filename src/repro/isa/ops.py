"""Instruction (op) definitions for simulated thread programs.

Ops are small frozen dataclasses.  ``__slots__`` keeps per-op memory low
because hot kernels yield hundreds of thousands of them.

``Compute``, ``Load`` and ``Store`` — the ops kernels build as they
run, about 750 k in one ``fig14-scalable`` benchmark pass — have a
hand-written ``__init__`` (``init=False``) that stores through the
slot's member descriptor.  The generated one goes through
``object.__setattr__`` to get past the frozen ``__setattr__``, and
``Compute``'s also called ``__post_init__``: a fifth (``Load``) to a
third (``Compute``) of the construction time.  Equality, hashing,
``repr``, ``__match_args__``, pickling and ``FrozenInstanceError`` on
assignment are still the dataclass's.  The other five ops are built
rarely, mostly once as module constants, and keep the generated
``__init__``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class CounterKind(enum.Enum):
    """Performance counters a simulated program may read.

    These mirror the counters the paper relies on:

    * ``CYCLES`` — the per-chip cycle counter (``rdtsc`` analogue) used by
      SAT training to time critical sections.
    * ``BUS_BUSY_CYCLES`` — cycles the off-chip data bus was occupied, the
      ``BUS_DRDY_CLOCKS`` analogue used by BAT training.
    * ``RETIRED_OPS`` — dynamic instructions retired by the reading core.
    * ``L3_MISSES`` — chip-wide L3 miss count.
    """

    CYCLES = "cycles"
    BUS_BUSY_CYCLES = "bus_busy_cycles"
    RETIRED_OPS = "retired_ops"
    L3_MISSES = "l3_misses"


@dataclass(frozen=True, slots=True, init=False)
class Compute:
    """Execute ``instructions`` dynamic ALU/FP instructions.

    The 2-wide in-order core retires these at two per cycle, so the op
    occupies the core for ``ceil(instructions / 2)`` cycles.
    """

    instructions: int

    def __init__(self, instructions: int) -> None:
        if instructions < 0:
            raise ValueError("instruction count must be non-negative")
        _set_instructions(self, instructions)


@dataclass(frozen=True, slots=True, init=False)
class Load:
    """Read one word at virtual byte address ``addr``.

    Timing is whatever the memory hierarchy returns for the 64-byte line
    containing ``addr``; the in-order core blocks until the fill returns.
    """

    addr: int

    def __init__(self, addr: int) -> None:
        _set_load_addr(self, addr)


@dataclass(frozen=True, slots=True, init=False)
class Store:
    """Write one word at virtual byte address ``addr``.

    L1 is write-through (Table 1), so stores always propagate to L2; a
    store to a line shared by another core triggers a directory upgrade.
    """

    addr: int

    def __init__(self, addr: int) -> None:
        _set_store_addr(self, addr)


#: The slots' member descriptors' setters, which the frozen
#: ``__setattr__`` does not guard (they exist once the classes do).
_set_instructions = vars(Compute)["instructions"].__set__
_set_load_addr = vars(Load)["addr"].__set__
_set_store_addr = vars(Store)["addr"].__set__


@dataclass(frozen=True, slots=True)
class Lock:
    """Acquire lock ``lock_id`` (enter a critical section).

    Locks are granted in FIFO order by the runtime lock manager.  A core
    waiting on a lock spins: it remains *active* for power accounting,
    matching the paper's "number of cores active in a given cycle" metric.
    """

    lock_id: int


@dataclass(frozen=True, slots=True)
class Unlock:
    """Release lock ``lock_id`` (leave a critical section)."""

    lock_id: int


@dataclass(frozen=True, slots=True)
class BarrierWait:
    """Wait on barrier ``barrier_id`` until the whole team arrives.

    The team size is fixed by the runtime when the team is spawned, so
    the op does not carry it.  Waiting cores spin (active for power).
    """

    barrier_id: int


@dataclass(frozen=True, slots=True)
class ReadCounter:
    """Read performance counter ``kind``.

    The core resumes the generator with the counter value:
    ``now = yield ReadCounter(CounterKind.CYCLES)``.
    """

    kind: CounterKind


Op = Compute | Load | Store | Lock | Unlock | BarrierWait | ReadCounter
