"""Host-speed calibration: report times as the reference host would see them.

The sandbox this benchmark was written on changes speed by 10-60 % from
one second to the next (a neighbour on the host core): the same
deterministic 0.3 s simulation took 0.25-0.47 s, wall and CPU time
alike, with no steal time to show for it.  No estimator over raw times
survives that — the minimum of three passes still moved 17 % between
identical runs.

So the benchmark measures the host's speed while it measures the
program.  A sampler thread times one fixed pure-Python loop every 10 ms
(about 3 % of the CPU).  A timed interval is then scaled by the mean of
``REFERENCE_SECONDS / sample`` over the samples that fell inside it:
the time the interval would have taken had the probe loop run at its
reference speed throughout.  Calibrated this way a single ``fig14-cs``
pass moved 4 % between runs where its raw time moved 14-21 %, and the
mean of three calibrated passes moved 2 %.

Calibrated times are averaged, never minimised: a minimum would pick
the interval whose correction erred furthest.
"""

from __future__ import annotations

import bisect
import threading
import time

#: What one probe takes on the reference sandbox at its usual speed; a
#: host that runs the probe in exactly this time reports raw times.
REFERENCE_SECONDS = 250e-6
#: Seconds between probes.
PERIOD = 0.01


def _probe() -> float:
    """CPU seconds of the fixed loop (thread time: immune to preemption,
    not to a slower CPU)."""
    started = time.thread_time()
    table: dict[int, int] = {}
    total = 0
    for i in range(1500):
        key = (i * 2654435761) & 255
        table[key] = table.get(key, 0) + i
        total += key & 7
    return time.thread_time() - started


class SpeedSampler:
    """Background thread recording the host's speed every ``PERIOD``."""

    def __init__(self) -> None:
        self._times: list[float] = []
        self._seconds: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="perf-speed-sampler")

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.is_set():
            seconds = _probe()
            self._times.append(time.perf_counter())
            self._seconds.append(seconds)
            self._stop.wait(PERIOD)

    def factor(self, start: float, end: float) -> float:
        """Reference speed over host speed during ``[start, end]``
        (``perf_counter`` readings); 1.0 when no probe fell inside."""
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_right(self._times, end)
        samples = self._seconds[lo:hi]
        if not samples:
            return 1.0
        return sum(REFERENCE_SECONDS / s for s in samples) / len(samples)

    def calibrated(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` would have taken at reference speed."""
        return (end - start) * self.factor(start, end)
