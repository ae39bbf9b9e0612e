"""Unit tests for the IR ops and program helpers."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.errors import ProgramError
from repro.isa.ops import (
    BarrierWait,
    Compute,
    CounterKind,
    Load,
    Lock,
    ReadCounter,
    Store,
    Unlock,
)

from tests.programs import validate_program


def test_compute_rejects_negative():
    with pytest.raises(ValueError):
        Compute(-1)


def test_ops_are_immutable():
    op = Load(0x1000)
    with pytest.raises(AttributeError):
        op.addr = 0x2000  # type: ignore[misc]


def test_ops_compare_by_value():
    assert Load(8) == Load(8)
    assert Store(8) != Store(16)
    assert Compute(4) == Compute(4)


ONE_OF_EACH = [Compute(40), Load(5), Store(5), Lock(1), Unlock(1),
               BarrierWait(2), ReadCounter(CounterKind.CYCLES)]


@pytest.mark.parametrize("op", ONE_OF_EACH, ids=lambda op: type(op).__name__)
def test_every_op_is_a_frozen_slotted_value(op):
    """Whether its ``__init__`` is generated or hand-written, an op is a
    frozen, slotted dataclass value."""
    cls = type(op)
    names = [f.name for f in dataclasses.fields(op)]
    values = [getattr(op, name) for name in names]
    twin = cls(*values)
    assert twin == op and hash(twin) == hash(op) and twin is not op
    assert cls(**dict(zip(names, values))) == op
    assert cls.__match_args__ == tuple(names)
    assert repr(op) == "{}({})".format(cls.__name__, ", ".join(
        f"{name}={value!r}" for name, value in zip(names, values)))
    assert not hasattr(op, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(op, names[0], values[0])
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(op, protocol)) == op


def test_op_reprs_and_classes_are_unchanged():
    assert repr(Load(addr=5)) == "Load(addr=5)"
    assert repr(Compute(3)) == "Compute(instructions=3)"
    assert Load(5) != Store(5)


def test_validate_accepts_well_formed_program():
    ops = [Compute(10), Load(0), Lock(1), Store(64), Unlock(1),
           BarrierWait(0), ReadCounter(CounterKind.CYCLES)]
    assert validate_program(ops) == ops


def test_validate_rejects_unlock_without_lock():
    with pytest.raises(ProgramError):
        validate_program([Unlock(0)])


def test_validate_rejects_mismatched_unlock():
    with pytest.raises(ProgramError):
        validate_program([Lock(0), Lock(1), Unlock(0), Unlock(1)])


def test_validate_accepts_nested_locks():
    ops = [Lock(0), Lock(1), Unlock(1), Unlock(0)]
    assert validate_program(ops) == ops


def test_validate_rejects_leaked_lock():
    with pytest.raises(ProgramError):
        validate_program([Lock(3)])


def test_validate_rejects_foreign_objects():
    with pytest.raises(ProgramError):
        validate_program([Compute(1), "not-an-op"])  # type: ignore[list-item]


def test_counter_kinds_are_distinct():
    assert len({k.value for k in CounterKind}) == len(list(CounterKind))


def test_validate_mismatched_unlock_names_held_locks():
    with pytest.raises(ProgramError) as excinfo:
        validate_program([Lock(3), Lock(7), Unlock(3)])
    message = str(excinfo.value)
    assert "releases lock 3" in message
    assert "innermost held lock is 7" in message
    assert "[3, 7]" in message
