"""Test instruments: materialize a finite op stream and check it, and
drive a team kernel's iterations without a machine.

Workload tests run a kernel's op stream through :func:`validate_program`
to check what a workload emits; the simulator itself never validates a
program (a hot kernel stays a generator).  :func:`drive_team` makes every
``team_iteration`` call a run would make, so its real values and op
tables can be checked directly.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import ProgramError
from repro.isa.ops import (
    BarrierWait,
    Branch,
    Compute,
    Load,
    Lock,
    Op,
    ReadCounter,
    Store,
    Unlock,
)

_VALID_OP_TYPES = (
    Compute,
    Load,
    Store,
    Lock,
    Unlock,
    BarrierWait,
    Branch,
    ReadCounter,
)


def validate_program(ops: Iterable[Op]) -> list[Op]:
    """Materialize and sanity-check a (finite) op sequence.

    Checks performed:

    * every item is a known op type;
    * branch sites have non-negative ``pc`` values (the gshare predictor
      indexes its table with the pc; a negative one is always a bug in
      the emitting workload);
    * lock/unlock pairs are balanced and properly nested per lock id;
    * no lock is released by a program that never acquired it.

    Returns the materialized list.

    Raises:
        ProgramError: on any violation.
    """
    held: list[int] = []
    out: list[Op] = []
    for i, op in enumerate(ops):
        if not isinstance(op, _VALID_OP_TYPES):
            raise ProgramError(f"op {i} is not a valid instruction: {op!r}")
        if isinstance(op, Branch):
            if op.pc < 0:
                raise ProgramError(
                    f"op {i} is a branch with negative pc {op.pc}")
        elif isinstance(op, Lock):
            held.append(op.lock_id)
        elif isinstance(op, Unlock):
            if not held:
                raise ProgramError(f"op {i} releases lock {op.lock_id} while holding none")
            if held[-1] != op.lock_id:
                raise ProgramError(
                    f"op {i} releases lock {op.lock_id} but innermost held "
                    f"lock is {held[-1]} (locks held: {held})"
                )
            held.pop()
        out.append(op)
    if held:
        raise ProgramError(f"program ended while still holding locks {held}")
    return out


def drive_team(kernel: Any, team: int = 32) -> None:
    """Call every iteration's share for every thread, iteration-major."""
    for iteration in range(kernel.total_iterations):
        for tid in range(team):
            kernel.team_iteration(iteration, tid, team)
