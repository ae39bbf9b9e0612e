"""Arithmetic shared by the benchmark: percentiles, per-segment latency
statistics, and span self times.

Pure functions over plain lists and dicts, so ``test_perf_harness.py``
can check them on synthetic data without running a workload.
"""

from __future__ import annotations

import math
import statistics
from typing import Callable, Iterable, Sequence

def nearest_rank(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def steady(intervals: Sequence[tuple[float, float]], size: int,
           factor: Callable[[float, float], float]) -> dict[str, float]:
    """Typical latency statistics of consecutive ``size``-request segments.

    ``intervals`` are the ``(start, end)`` of each request in order.
    Each complete segment's median, 90th percentile and mean latency
    are scaled by ``factor(segment start, segment end)`` — the host-speed
    correction of ``perf_calib`` — and each statistic reported is the
    median over segments.  A trailing partial segment is dropped, so
    that every segment holds the same request mix.
    """
    if size < 1:
        raise ValueError("segment size must be >= 1")
    rows = []
    for k in range(0, len(intervals) - size + 1, size):
        segment = intervals[k:k + size]
        scale = factor(segment[0][0], segment[-1][1])
        ordered = sorted(end - start for start, end in segment)
        rows.append((scale * nearest_rank(ordered, 0.50),
                     scale * nearest_rank(ordered, 0.90),
                     scale * sum(ordered) / size))
    if not rows:
        raise ValueError(f"need at least {size} samples, "
                         f"got {len(intervals)}")
    p50, p90, mean = (statistics.median(column) for column in zip(*rows))
    return {"p50": p50, "p90": p90, "mean": mean,
            "segments": float(len(rows))}


# -- spans ------------------------------------------------------------------
#
# A span is a dict with ``id``, ``parent`` (an id or None), ``op`` (the
# job or request it belongs to), ``name``, ``layer``, ``start``, ``end``.


def _covered(start: float, end: float,
             intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[dict]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover.

    Children are clipped to the parent and overlapping children (two
    threads working for one request) are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(
                (s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - _covered(s["start"], s["end"], children.get(s["id"], ()))
        for s in spans
    }


def layer_self_times(spans: Sequence[dict]) -> dict[str, float]:
    """Self time summed per layer."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        totals[s["layer"]] = totals.get(s["layer"], 0.0) + own[s["id"]]
    return totals
