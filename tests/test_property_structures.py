"""Property-based tests for core data structures (hypothesis)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.parallel import static_chunks
from repro.sim.bus import ReservationTimeline
from repro.sim.cache import SetAssocCache
from repro.sim.engine import EventQueue
from repro.sim.ring import Ring
from tests.spec_memsys import holds, insert, lookup, peek


# -- static_chunks --------------------------------------------------------------

@given(total=st.integers(0, 10_000), threads=st.integers(1, 64),
       start=st.integers(0, 1000))
def test_chunks_partition_iteration_space(total, threads, start):
    chunks = static_chunks(total, threads, start)
    assert len(chunks) == threads
    covered = [i for c in chunks for i in c]
    assert covered == list(range(start, start + total))


@given(total=st.integers(0, 10_000), threads=st.integers(1, 64))
def test_chunk_sizes_balanced(total, threads):
    sizes = [len(c) for c in static_chunks(total, threads)]
    assert max(sizes) - min(sizes) <= 1


# -- cache LRU --------------------------------------------------------------------

@given(lines=st.lists(st.integers(0, 63), min_size=1, max_size=300))
@settings(max_examples=100)
def test_cache_capacity_invariant(lines):
    c = SetAssocCache(set_mask=3, assoc=2)  # 4 sets
    for line in lines:
        insert(c, line, line)
    assert len(c) <= 8
    for s in c._sets:
        assert len(s) <= 2


@given(lines=st.lists(st.integers(0, 63), min_size=1, max_size=300))
@settings(max_examples=100)
def test_cache_most_recent_insert_always_resident(lines):
    c = SetAssocCache(set_mask=3, assoc=2)  # 4 sets
    for line in lines:
        insert(c, line, line)
        assert holds(c, line)
        assert peek(c, line) == line


@given(lines=st.lists(st.integers(0, 31), min_size=2, max_size=100))
@settings(max_examples=100)
def test_cache_hits_plus_misses_equals_lookups(lines):
    c = SetAssocCache(set_mask=3, assoc=4)  # 4 sets
    for line in lines:
        if lookup(c, line) is None:
            insert(c, line, True)
    assert c.stats.accesses == len(lines)


# -- reservation timeline ------------------------------------------------------------

@given(requests=st.lists(
    st.tuples(st.integers(0, 10_000), st.integers(1, 64)),
    min_size=1, max_size=200))
@settings(max_examples=100)
def test_timeline_reservations_disjoint_and_after_ready(requests):
    tl = ReservationTimeline()
    booked = []
    for ready, duration in requests:
        start = tl.reserve(ready, duration)
        assert start >= ready
        booked.append((start, start + duration))
    booked.sort()
    for (s1, e1), (s2, e2) in zip(booked, booked[1:]):
        assert e1 <= s2, "overlapping bus reservations"


@given(requests=st.lists(st.integers(0, 1000), min_size=1, max_size=100))
@settings(max_examples=100)
def test_timeline_work_conserving_for_sorted_arrivals(requests):
    """With non-decreasing ready times the bus never idles while work
    is waiting: total busy time ends exactly at sum of durations past
    the last gap."""
    tl = ReservationTimeline()
    now = 0
    last_end = 0
    for gap in sorted(requests):
        start = tl.reserve(gap, 10)
        assert start <= max(gap, last_end)
        last_end = max(last_end, start + 10)
        now = gap


@given(readies=st.lists(st.integers(0, 3000), min_size=1, max_size=200),
       duration=st.integers(1, 64))
def test_timeline_min_duration_changes_no_start(readies, duration):
    """Closing the gaps no reservation fits in moves no reservation."""
    plain = ReservationTimeline()
    closing = ReservationTimeline(min_duration=duration)
    for ready in readies:
        assert (closing.reserve(ready, duration)
                == plain.reserve(ready, duration))
    assert len(closing._starts) <= len(plain._starts)


# -- ring --------------------------------------------------------------------------------

@given(n=st.integers(2, 128), a=st.integers(0, 127), b=st.integers(0, 127))
def test_ring_metric_properties(n, a, b):
    a, b = a % n, b % n
    r = Ring(n)
    assert r.hops(a, b) == r.hops(b, a)
    assert r.hops(a, a) == 0
    assert r.hops(a, b) <= n // 2


@given(n=st.integers(2, 64), a=st.integers(0, 63), b=st.integers(0, 63),
       c=st.integers(0, 63))
def test_ring_triangle_inequality(n, a, b, c):
    a, b, c = a % n, b % n, c % n
    r = Ring(n)
    assert r.hops(a, c) <= r.hops(a, b) + r.hops(b, c)


# -- event queue ---------------------------------------------------------------------------

@given(times=st.lists(st.integers(0, 10_000), min_size=1, max_size=200))
@settings(max_examples=100)
def test_events_always_fire_in_nondecreasing_time_order(times):
    q = EventQueue()
    fired = []
    for t in times:
        q.schedule(t, lambda t=t: fired.append(t))
    q.run()
    assert fired == sorted(times)
    assert q.now == max(times)
