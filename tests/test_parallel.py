"""Unit tests for static chunking."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.runtime.parallel import (
    ChunkTable,
    static_chunk,
    static_chunks,
    team_chunks,
)


def test_chunks_partition_exactly():
    chunks = static_chunks(100, 7)
    covered = [i for c in chunks for i in c]
    assert covered == list(range(100))


def test_chunk_sizes_differ_by_at_most_one():
    chunks = static_chunks(100, 7)
    sizes = [len(c) for c in chunks]
    assert max(sizes) - min(sizes) <= 1
    assert sizes[0] >= sizes[-1]  # extras go to the first threads


def test_even_division():
    chunks = static_chunks(64, 8)
    assert all(len(c) == 8 for c in chunks)


def test_more_threads_than_iterations_gives_empty_chunks():
    chunks = static_chunks(3, 8)
    assert sum(len(c) for c in chunks) == 3
    assert sum(1 for c in chunks if len(c) == 0) == 5


def test_start_offset_shifts_ranges():
    chunks = static_chunks(10, 2, start=100)
    assert chunks[0] == range(100, 105)
    assert chunks[1] == range(105, 110)


def test_zero_iterations():
    chunks = static_chunks(0, 4)
    assert all(len(c) == 0 for c in chunks)


def test_invalid_arguments():
    with pytest.raises(ConfigError):
        static_chunks(10, 0)
    with pytest.raises(ConfigError):
        static_chunks(-1, 2)


def test_static_chunk_is_the_indexed_entry_of_static_chunks():
    for total in range(201):
        for threads in range(1, 41):
            for start in (0, 17):
                chunks = static_chunks(total, threads, start)
                for index, expected in enumerate(chunks):
                    got = static_chunk(total, threads, index, start)
                    # Bounds, not ``==``: all empty ranges compare equal.
                    assert (got.start, got.stop, got.step) == (
                        expected.start, expected.stop, expected.step)


def test_static_chunk_invalid_arguments():
    with pytest.raises(ConfigError):
        static_chunk(10, 0, 0)
    with pytest.raises(ConfigError):
        static_chunk(-1, 2, 0)
    for index in (-1, 4):
        with pytest.raises(IndexError):
            static_chunk(10, 4, index)


def test_team_chunks_computes_each_split_once_per_table():
    table: ChunkTable = {}
    first = team_chunks(table, 100, 7, 17)
    assert first == static_chunks(100, 7, 17)
    assert team_chunks(table, 100, 7, 17) is first
    # Every argument is part of the key.
    for args in ((100, 7, 0), (100, 8, 17), (99, 7, 17)):
        assert team_chunks(table, *args) == static_chunks(*args)
    assert len(table) == 4
    assert team_chunks({}, 100, 7, 17) is not first  # a table per owner
