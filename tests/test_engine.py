"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import EventQueue


def test_starts_at_cycle_zero():
    assert EventQueue().now == 0


def test_events_run_in_time_order():
    q = EventQueue()
    seen = []
    q.schedule(30, lambda: seen.append(30))
    q.schedule(10, lambda: seen.append(10))
    q.schedule(20, lambda: seen.append(20))
    q.run()
    assert seen == [10, 20, 30]


def test_ties_break_in_schedule_order():
    q = EventQueue()
    seen = []
    for tag in ("a", "b", "c"):
        q.schedule(5, lambda t=tag: seen.append(t))
    q.run()
    assert seen == ["a", "b", "c"]


def test_now_advances_to_event_time():
    q = EventQueue()
    times = []
    q.schedule(17, lambda: times.append(q.now))
    q.run()
    assert times == [17]
    assert q.now == 17


def test_scheduling_in_the_past_raises():
    q = EventQueue()
    q.schedule(10, lambda: None)
    q.run()
    with pytest.raises(SimulationError):
        q.schedule(5, lambda: None)


def test_schedule_at_current_time_is_allowed():
    q = EventQueue()
    seen = []
    q.schedule(10, lambda: q.schedule(10, lambda: seen.append("nested")))
    q.run()
    assert seen == ["nested"]


def test_events_scheduled_during_run_execute():
    q = EventQueue()
    seen = []

    def first():
        seen.append("first")
        q.schedule(q.now + 5, lambda: seen.append("second"))

    q.schedule(1, first)
    q.run()
    assert seen == ["first", "second"]
    assert q.now == 6


def test_len_reflects_pending_events():
    q = EventQueue()
    assert len(q.heap) == 0
    q.schedule(1, lambda: None)
    q.schedule(2, lambda: None)
    assert len(q.heap) == 2
    q.run()
    assert len(q.heap) == 0


class _RecordingSampler:
    """Minimal Sampler: records every cycle the clock advances to."""

    def __init__(self) -> None:
        self.advances: list[int] = []

    def on_advance(self, now: int) -> None:
        self.advances.append(now)


def test_sampler_observes_every_advance():
    q = EventQueue()
    q.sampler = sampler = _RecordingSampler()
    q.schedule(3, lambda: None)
    q.schedule(3, lambda: None)  # same-cycle event: no second advance
    q.schedule(9, lambda: None)
    q.run()
    assert sampler.advances == [3, 9]


def test_sampler_is_not_told_of_an_event_at_the_current_cycle():
    q = EventQueue()
    q.sampler = sampler = _RecordingSampler()
    q.schedule(0, lambda: None)  # fires at the current cycle
    q.schedule(4, lambda: None)
    q.run()
    assert sampler.advances == [4]


def test_out_of_order_schedules_keep_time_then_insertion_order():
    """Events scheduled earlier than pending ones still pop first, ties
    in insertion order, including a same-cycle re-entry."""
    q = EventQueue()
    seen = []
    q.schedule(50, lambda: seen.append("d"))
    q.schedule(20, lambda: seen.append("b"))
    q.schedule(10, lambda: seen.append("a"))
    q.schedule(20, lambda: seen.append("c"))   # ties with "b"; later seq

    def late():
        seen.append("e")
        q.schedule(q.now, lambda: seen.append("f"))  # same-cycle re-entry

    q.schedule(60, late)
    q.run()
    assert seen == ["a", "b", "c", "d", "e", "f"]
    assert q.now == 60


#: An event is ``(delay, children)``: it fires ``delay`` cycles after the
#: event that scheduled it (after cycle 0 for a root) and then schedules
#: its children.  Small delays, zero included, make same-cycle ties and
#: schedules at ``now`` common.
_events = st.recursive(
    st.tuples(st.integers(0, 6), st.just(())),
    lambda kids: st.tuples(st.integers(0, 6),
                           st.lists(kids, max_size=3).map(tuple)),
    max_leaves=12)


def _model(roots):
    """The queue's contract, spelled out on a list scanned for its
    minimum: ``(fired order, advances, final now)``."""
    pending, fired, advances = [], [], []
    now = 0
    for delay, kids in roots:
        pending.append((delay, len(pending), kids))
    inserted = len(pending)
    while pending:
        when, index, kids = entry = min(pending)  # indices are unique
        pending.remove(entry)
        if when > now:
            advances.append(when)
        now = when
        fired.append(index)
        for delay, grandkids in kids:
            pending.append((now + delay, inserted, grandkids))
            inserted += 1
    return fired, advances, now


@given(roots=st.lists(_events, max_size=6), with_sampler=st.booleans())
@settings(max_examples=200, deadline=None)
def test_queue_fires_in_time_then_insertion_order(roots, with_sampler):
    """Random schedules, whose callbacks schedule more at ``now`` and
    ``now + k``, fire in exactly sorted ``(when, insertion order)`` with
    or without a sampler; the past is refused; the sampler sees every
    advance; run-ahead is offered only when no sampler is attached."""
    q = EventQueue()
    sampler = _RecordingSampler()
    if with_sampler:
        q.sampler = sampler
    fired: list[int] = []
    offered: set[bool] = set()
    inserted = 0

    def add(when: int, kids) -> None:
        nonlocal inserted
        index = inserted
        inserted += 1

        def callback() -> None:
            assert q.now == when
            fired.append(index)
            offered.add(q.run_ahead)
            if when:
                with pytest.raises(SimulationError):
                    q.schedule(when - 1, callback)
            for delay, grandkids in kids:
                add(when + delay, grandkids)

        q.schedule(when, callback)

    for delay, kids in roots:
        add(delay, kids)
    q.run()

    want_fired, want_advances, want_now = _model(roots)
    assert fired == want_fired
    assert (q.now, len(q.heap)) == (want_now, 0)
    if with_sampler:
        assert sampler.advances == want_advances
    assert not q.run_ahead
    assert offered <= {not with_sampler}
