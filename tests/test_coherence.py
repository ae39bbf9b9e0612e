"""Unit tests for the directory MESI protocol state machine."""

from __future__ import annotations

from repro.sim.coherence import Directory, MesiState
from tests.spec_memsys import mark_dirty


def test_first_gets_grants_exclusive():
    d = Directory()
    forward, dirty = d.on_gets(line=1, requester=0)
    assert forward is None and dirty is False
    assert d._entries.get(1) == (0, False)


def test_second_gets_downgrades_owner():
    d = Directory()
    d.on_gets(1, requester=0)
    forward, dirty = d.on_gets(1, requester=3)
    assert forward == 0
    assert dirty is False  # owner held it in E, not M
    assert d._entries.get(1) == {0, 3}


def test_gets_from_dirty_owner_forwards_and_writes_back():
    d = Directory()
    d.on_getm(1, requester=2)  # core 2 owns it in M
    forward, dirty = d.on_gets(1, requester=5)
    assert forward == 2
    assert dirty is True
    assert d.stats.writebacks_to_l3 == 1
    assert d.stats.cache_to_cache == 1


def test_getm_invalidates_sharers():
    d = Directory()
    d.on_gets(1, requester=0)
    d.on_gets(1, requester=1)
    d.on_gets(1, requester=2)
    forward, dirty, invalidated = d.on_getm(1, requester=0)
    assert forward is None
    assert invalidated == {1, 2}
    assert d._entries.get(1) == (0, True)
    assert d.stats.invalidations_sent == 2


def test_getm_pulls_dirty_line_from_owner():
    d = Directory()
    d.on_getm(1, requester=4)
    forward, dirty, invalidated = d.on_getm(1, requester=7)
    assert forward == 4
    assert dirty is True
    assert invalidated == {4}
    assert d._entries.get(1) == (7, True)


def test_upgrade_returns_other_sharers():
    d = Directory()
    d.on_gets(1, requester=0)
    d.on_gets(1, requester=1)
    victims = d.on_upgrade(1, requester=1)
    assert victims == {0}
    assert d._entries.get(1) == (1, True)


def test_evict_of_clean_owner_drops_entry():
    d = Directory()
    d.on_gets(1, requester=0)  # E
    dirty = d.on_evict(1, core=0, state=MesiState.EXCLUSIVE)
    assert dirty is False
    assert d._entries.get(1) is None


def test_evict_of_dirty_owner_reports_writeback():
    d = Directory()
    d.on_getm(1, requester=0)
    dirty = d.on_evict(1, core=0, state=MesiState.MODIFIED)
    assert dirty is True
    assert d._entries.get(1) is None


def test_evict_of_sharer_shrinks_set():
    d = Directory()
    d.on_gets(1, requester=0)
    d.on_gets(1, requester=1)
    d.on_evict(1, core=0, state=MesiState.SHARED)
    assert d._entries.get(1) == {1}  # a lone sharer stays in S
    d.on_evict(1, core=1, state=MesiState.SHARED)
    assert d._entries.get(1) is None


def test_recall_returns_all_holders():
    d = Directory()
    d.on_gets(1, requester=0)
    d.on_gets(1, requester=1)
    holders, dirty = d.on_recall(1)
    assert holders == {0, 1}
    assert dirty is False
    assert d._entries.get(1) is None


def test_recall_of_dirty_owner_reports_writeback():
    d = Directory()
    d.on_getm(1, requester=3)
    holders, dirty = d.on_recall(1)
    assert holders == {3}
    assert dirty is True


def test_recall_of_uncached_line_is_empty():
    d = Directory()
    assert d.on_recall(99) == (set(), False)


def test_mark_dirty_flips_exclusive_to_modified():
    d = Directory()
    d.on_gets(1, requester=0)  # E
    mark_dirty(d, 1, core=0)
    assert d._entries.get(1) == (0, True)


def test_mark_dirty_ignores_non_owner():
    d = Directory()
    d.on_gets(1, requester=0)
    mark_dirty(d, 1, core=5)
    assert d._entries.get(1) == (0, False)


def test_len_counts_tracked_lines():
    d = Directory()
    d.on_gets(1, requester=0)
    d.on_gets(2, requester=0)
    assert len(d._entries) == 2
