"""Unit tests for the bi-directional ring interconnect."""

from __future__ import annotations

import pytest

from repro.sim.ring import Ring


def test_zero_hops_to_self():
    r = Ring(8)
    assert r.hops(3, 3) == 0


def test_adjacent_nodes_one_hop():
    r = Ring(8)
    assert r.hops(0, 1) == 1
    assert r.hops(7, 0) == 1  # wraps around


def test_shortest_direction_chosen():
    r = Ring(8)
    assert r.hops(0, 6) == 2  # counter-clockwise beats 6 clockwise hops
    assert r.hops(0, 4) == 4  # diametrically opposite


def test_hops_symmetric():
    r = Ring(10)
    for a in range(10):
        for b in range(10):
            assert r.hops(a, b) == r.hops(b, a)


def test_max_hops_is_half_ring():
    r = Ring(12)
    assert max(r.hops(0, d) for d in range(12)) == 6


def test_latency_scales_with_hop_latency():
    assert Ring(8, hop_latency=3).reserve(0, 0, 2) == 6
    assert Ring(8, hop_latency=3, link_occupancy=1).reserve(0, 0, 2) == 6


def test_out_of_range_node_rejected():
    r = Ring(4)
    with pytest.raises(ValueError):
        r.hops(0, 4)
    with pytest.raises(ValueError):
        r.hops(-1, 0)


def test_single_node_ring():
    r = Ring(1)
    assert r.hops(0, 0) == 0


def test_invalid_construction():
    with pytest.raises(ValueError):
        Ring(0)
    with pytest.raises(ValueError):
        Ring(4, hop_latency=-1)


# -- link-bandwidth modeling (ring_link_occupancy > 0) ------------------------

def test_reserve_on_a_wide_ring_is_hops_times_hop_latency():
    r = Ring(8)
    assert r.reserve(100, 0, 3) == 100 + r.hops(0, 3)
    assert r.reserve(100, 0, 3) == 100 + r.hops(0, 3)  # never waits
    assert r._link_free == [[0, 0]] * 8


def test_reserve_zero_hops():
    r = Ring(8, link_occupancy=4)
    assert r.reserve(50, 2, 2) == 50


def test_reserve_leaves_message_counts_to_the_sender():
    r = Ring(8, link_occupancy=16)
    r.reserve(0, 0, 2)
    r.reserve(0, 0, 2)
    assert (r.stats.messages, r.stats.total_hops) == (0, 0)
    assert r.stats.link_wait_cycles == 16


def test_narrow_ring_serializes_messages_on_shared_links():
    r = Ring(8, link_occupancy=16)
    t1 = r.reserve(0, 0, 2)
    t2 = r.reserve(0, 0, 2)  # same path, same instant
    assert t2 > t1
    assert r.stats.link_wait_cycles > 0


def test_narrow_ring_opposite_directions_do_not_contend():
    r = Ring(8, link_occupancy=16)
    t_cw = r.reserve(0, 1, 2)   # uses link 1->2 clockwise
    t_ccw = r.reserve(0, 2, 1)  # uses link 2->1 counter-clockwise
    assert t_cw == 1 and t_ccw == 1  # one hop each, no waiting
    assert r.stats.link_wait_cycles == 0


def test_narrow_ring_disjoint_paths_do_not_contend():
    r = Ring(16, link_occupancy=16)
    t1 = r.reserve(0, 0, 2)
    t2 = r.reserve(0, 8, 10)
    assert t1 == t2 == 2
    assert r.stats.link_wait_cycles == 0


def test_link_occupancy_validated():
    with pytest.raises(ValueError):
        Ring(8, link_occupancy=-1)
