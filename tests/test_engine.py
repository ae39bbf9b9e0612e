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


def test_schedule_in_is_relative():
    q = EventQueue()
    q.schedule(10, lambda: q.schedule_in(5, lambda: None))
    q.run()
    assert q.now == 15


def test_run_until_leaves_future_events_queued():
    q = EventQueue()
    seen = []
    q.schedule(10, lambda: seen.append(10))
    q.schedule(100, lambda: seen.append(100))
    q.run(until=50)
    assert seen == [10]
    assert q.now == 50
    assert len(q) == 1
    q.run()
    assert seen == [10, 100]


def test_run_until_with_empty_queue_advances_clock():
    q = EventQueue()
    q.run(until=42)
    assert q.now == 42


def test_step_runs_one_event():
    q = EventQueue()
    seen = []
    q.schedule(1, lambda: seen.append(1))
    q.schedule(2, lambda: seen.append(2))
    assert q.step() is True
    assert seen == [1]
    assert q.step() is True
    assert q.step() is False
    assert seen == [1, 2]


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
    assert len(q) == 0
    q.schedule(1, lambda: None)
    q.schedule(2, lambda: None)
    assert len(q) == 2
    q.run()
    assert len(q) == 0


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


def test_run_until_clamp_notifies_sampler():
    """Clamping to ``until`` is a clock advance like any other: the
    sampler must see it whether or not an event lands on the bound,
    and whether or not any event fired during the run at all."""
    q = EventQueue()
    q.sampler = sampler = _RecordingSampler()
    q.schedule(10, lambda: None)
    q.schedule(100, lambda: None)
    q.run(until=50)
    assert q.now == 50
    assert sampler.advances == [10, 50]

    # Empty-drain clamp: no event before the bound.
    q.run(until=80)
    assert q.now == 80
    assert sampler.advances == [10, 50, 80]

    # No regression to a time already reached: until == now is a no-op.
    q.run(until=80)
    assert sampler.advances == [10, 50, 80]

    q.run()
    assert sampler.advances == [10, 50, 80, 100]


def test_step_notifies_sampler_only_on_advance():
    q = EventQueue()
    q.sampler = sampler = _RecordingSampler()
    q.schedule(0, lambda: None)  # fires at the current cycle
    q.schedule(4, lambda: None)
    q.step()
    assert sampler.advances == []
    q.step()
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


def _model(roots, until):
    """The queue's contract, spelled out on a list scanned for its
    minimum: ``(fired order, advances, final now, events left)``."""
    pending, fired, advances = [], [], []
    now = 0
    for delay, kids in roots:
        pending.append((delay, len(pending), kids))
    inserted = len(pending)
    while pending:
        when, index, kids = entry = min(pending)  # indices are unique
        if until is not None and when > until:
            break
        pending.remove(entry)
        if when > now:
            advances.append(when)
        now = when
        fired.append(index)
        for delay, grandkids in kids:
            pending.append((now + delay, inserted, grandkids))
            inserted += 1
    if until is not None and until > now:
        advances.append(until)
        now = until
    return fired, advances, now, len(pending)


@given(roots=st.lists(_events, max_size=6),
       until=st.none() | st.integers(0, 20),
       with_sampler=st.booleans(), stepwise=st.booleans())
@settings(max_examples=200, deadline=None)
def test_queue_fires_in_time_then_insertion_order(roots, until,
                                                  with_sampler, stepwise):
    """Random schedules, whose callbacks schedule more at ``now`` and
    ``now + k``, fire in exactly sorted ``(when, insertion order)`` under
    every way of draining; the past is refused; ``run(until)`` clamps
    and keeps the rest; the sampler sees every advance; ``step()`` fires
    one event; run-ahead is offered only by the plain ``run()``."""
    if stepwise:
        until = None
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
    if stepwise:
        steps = 0
        while q.step():
            steps += 1
            assert len(fired) == steps
    else:
        q.run(until)

    want_fired, want_advances, want_now, want_left = _model(roots, until)
    assert fired == want_fired
    assert (q.now, len(q)) == (want_now, want_left)
    if with_sampler:
        assert sampler.advances == want_advances
    assert not q.run_ahead
    assert offered <= {until is None and not with_sampler and not stepwise}
