"""OpenMP-style static loop scheduling.

These helpers split an iteration space statically across a team (OpenMP
``schedule(static)``, which is what the paper's kernels use); a thread
body runs the range it is handed.
"""

from __future__ import annotations

from repro.errors import ConfigError


def static_chunks(total_iterations: int, num_threads: int,
                  start: int = 0) -> list[range]:
    """Split ``total_iterations`` into ``num_threads`` contiguous ranges.

    Matches OpenMP static scheduling: the first ``total % num_threads``
    threads receive one extra iteration, so chunk sizes differ by at most
    one.  Threads beyond the iteration count receive empty ranges.
    """
    if num_threads < 1:
        raise ConfigError("num_threads must be >= 1")
    if total_iterations < 0:
        raise ConfigError("iteration count must be non-negative")
    base = total_iterations // num_threads
    extra = total_iterations % num_threads
    chunks = []
    lo = start
    for t in range(num_threads):
        size = base + (1 if t < extra else 0)
        chunks.append(range(lo, lo + size))
        lo += size
    return chunks


def static_chunk(total_iterations: int, num_threads: int, index: int,
                 start: int = 0) -> range:
    """``static_chunks(total_iterations, num_threads, start)[index]`` in O(1).

    What a thread body wants is its own range; building the whole
    team's list to keep one entry is O(team) per thread per iteration.

    Raises:
        IndexError: ``index`` outside ``[0, num_threads)``.
    """
    if num_threads < 1:
        raise ConfigError("num_threads must be >= 1")
    if total_iterations < 0:
        raise ConfigError("iteration count must be non-negative")
    if not 0 <= index < num_threads:
        raise IndexError(f"chunk {index} of a team of {num_threads}")
    base, extra = divmod(total_iterations, num_threads)
    lo = start + index * base + min(index, extra)
    return range(lo, lo + base + (1 if index < extra else 0))


#: A kernel's memo of :func:`static_chunks` results, keyed by arguments.
ChunkTable = dict[tuple[int, int, int], list[range]]


def team_chunks(table: ChunkTable, total_iterations: int, num_threads: int,
                start: int = 0) -> list[range]:
    """``static_chunks(total_iterations, num_threads, start)``, computed
    once per ``table``.

    A kernel whose per-thread split never changes across iterations
    holds the table and indexes the result by thread id, instead of
    recomputing its chunk every iteration.  The table belongs to the
    kernel, not the process, so it lives exactly as long as the kernel.
    """
    key = (total_iterations, num_threads, start)
    chunks = table.get(key)
    if chunks is None:
        chunks = table[key] = static_chunks(total_iterations, num_threads,
                                            start)
    return chunks
