"""Unit tests for the set-associative LRU cache.

The cache is state; its operations are the specification's functions
(``tests/spec_memsys.py``) over that state.
"""

from __future__ import annotations

import pytest

from repro.sim.cache import UNFILLED, SetAssocCache
from tests.spec_memsys import clear, holds, insert, lookup, peek, update


def make_cache(sets=8, assoc=2):
    return SetAssocCache(sets - 1, assoc, name="test")


def test_geometry():
    c = make_cache(sets=8, assoc=2)
    assert c.num_sets == 8
    assert c.assoc == 2


def test_miss_then_hit():
    c = make_cache()
    assert lookup(c, 5) is None
    insert(c, 5, "payload")
    assert lookup(c, 5) == "payload"
    assert c.stats.misses == 1
    assert c.stats.hits == 1


def test_lru_victim_is_least_recently_used():
    c = make_cache(sets=1, assoc=2)  # one set of 2 ways
    insert(c, 0, "a")
    insert(c, 1, "b")
    lookup(c, 0)  # touch 0: 1 becomes LRU
    victim = insert(c, 2, "c")
    assert victim == (1, "b")
    assert holds(c, 0) and holds(c, 2) and not holds(c, 1)


def test_insert_existing_line_does_not_evict():
    c = make_cache(sets=1, assoc=2)
    insert(c, 0, "a")
    insert(c, 1, "b")
    assert insert(c, 0, "a2") is None
    assert peek(c, 0) == "a2"
    assert len(c) == 2


def test_lookup_without_touch_keeps_lru_order():
    c = make_cache(sets=1, assoc=2)
    insert(c, 0, "a")
    insert(c, 1, "b")
    lookup(c, 0, touch=False)
    victim = insert(c, 2, "c")
    assert victim == (0, "a")  # 0 stayed LRU despite the lookup


def test_peek_does_not_count_stats():
    c = make_cache()
    insert(c, 7, True)
    peek(c, 7)
    peek(c, 8)
    assert c.stats.hits == 0
    assert c.stats.misses == 0


def test_update_replaces_payload_in_place():
    c = make_cache(sets=1, assoc=2)
    insert(c, 0, "a")
    insert(c, 1, "b")
    assert update(c, 0, "a2") is True
    # update must not promote: 0 is still the LRU victim.
    victim = insert(c, 2, "c")
    assert victim == (0, "a2")


def test_update_missing_line_returns_false():
    c = make_cache()
    assert update(c, 99, "x") is False


def test_invalidate_removes_line():
    c = make_cache()
    insert(c, 3, "p")
    assert c.invalidate(3) == "p"
    assert not holds(c, 3)
    assert c.stats.invalidations == 1
    assert c.invalidate(3) is None
    assert c.stats.invalidations == 1


def test_different_sets_do_not_conflict():
    c = make_cache(sets=8, assoc=2)
    for line in range(8):  # one line per set
        insert(c, line, line)
    assert len(c) == 8
    assert c.stats.evictions == 0


def test_same_set_conflicts():
    c = make_cache(sets=8, assoc=2)
    insert(c, 0, "a")
    insert(c, 8, "b")
    insert(c, 16, "c")  # third line in set 0 evicts
    assert c.stats.evictions == 1
    assert len(c) == 2


def test_clear_empties_but_keeps_stats():
    c = make_cache()  # partly filled: most sets are still UNFILLED
    insert(c, 1, True)
    lookup(c, 1)
    sets = c._sets
    clear(c)
    assert len(c) == 0
    assert c.stats.hits == 1
    # The sentinel is shared by every cache in the process: clear()
    # drops the filled sets and never writes it, and the list a memory
    # port has bound is the one it refills.
    assert len(UNFILLED) == 0
    assert c._sets is sets and all(s is UNFILLED for s in sets)
    insert(c, 1, True)
    assert len(c) == 1 and len(UNFILLED) == 0


def test_miss_rate():
    c = make_cache()
    assert c.stats.miss_rate == 0.0
    lookup(c, 1)  # miss
    insert(c, 1, True)
    lookup(c, 1)  # hit
    assert c.stats.miss_rate == pytest.approx(0.5)

