"""Unit tests for the set-associative LRU cache.

The cache is state; its operations are the specification's functions
(``tests/spec_memsys.py``) over that state.
"""

from __future__ import annotations

import pytest

from repro.sim.cache import UNFILLED, SetAssocCache
from tests.spec_memsys import clear, holds, insert, lookup, peek, update


def make_cache(size=1024, assoc=2, line=64):
    return SetAssocCache(size, assoc, line, name="test")


def test_geometry():
    c = make_cache(size=1024, assoc=2, line=64)  # 16 lines, 8 sets
    assert c.num_sets == 8
    assert c.assoc == 2


def test_invalid_line_size_rejected():
    with pytest.raises(ValueError):
        SetAssocCache(1024, 2, 48)


def test_size_not_divisible_rejected():
    with pytest.raises(ValueError):
        SetAssocCache(64 * 3, 2, 64)  # 3 lines cannot split into 2-way sets


def test_miss_then_hit():
    c = make_cache()
    assert lookup(c, 5) is None
    insert(c, 5, "payload")
    assert lookup(c, 5) == "payload"
    assert c.stats.misses == 1
    assert c.stats.hits == 1


def test_lru_victim_is_least_recently_used():
    c = make_cache(size=2 * 64, assoc=2, line=64)  # one set of 2 ways
    insert(c, 0, "a")
    insert(c, 1, "b")
    lookup(c, 0)  # touch 0: 1 becomes LRU
    victim = insert(c, 2, "c")
    assert victim == (1, "b")
    assert holds(c, 0) and holds(c, 2) and not holds(c, 1)


def test_insert_existing_line_does_not_evict():
    c = make_cache(size=2 * 64, assoc=2, line=64)
    insert(c, 0, "a")
    insert(c, 1, "b")
    assert insert(c, 0, "a2") is None
    assert peek(c, 0) == "a2"
    assert len(c) == 2


def test_lookup_without_touch_keeps_lru_order():
    c = make_cache(size=2 * 64, assoc=2, line=64)
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
    c = make_cache(size=2 * 64, assoc=2, line=64)
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
    c = make_cache(size=1024, assoc=2, line=64)  # 8 sets
    for line in range(8):  # one line per set
        insert(c, line, line)
    assert len(c) == 8
    assert c.stats.evictions == 0


def test_same_set_conflicts():
    c = make_cache(size=1024, assoc=2, line=64)  # 8 sets
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


def test_non_power_of_two_set_count():
    with pytest.raises(ValueError, match="3 sets is not a power of two"):
        SetAssocCache(3 * 64 * 2, 2, 64)  # a set is line & (num_sets - 1)
