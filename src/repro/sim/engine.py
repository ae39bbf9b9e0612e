"""Discrete-event simulation engine.

A minimal, deterministic event queue: events are ``(time, seq, callback)``
triples in one binary heap, ordered by time with a monotone sequence
number breaking ties, so two runs of the same program produce
bit-identical schedules.

*Run-ahead.*  When no ``sampler`` is attached, :meth:`EventQueue.run`
raises :attr:`EventQueue.run_ahead` for the drain.  While it is up, a
callback about to schedule *itself* at a time strictly earlier than
every pending event may set :attr:`EventQueue.now` to that time and
carry on instead: the queue would have handed exactly that event
straight back.  Strict ``<`` leaves every same-cycle tie to the heap's
``(time, seq)`` order, and since no sequence number is consumed the
relative order of all other events is unchanged.  The core's step
(``repro.sim.core``) is the one user; a drain with a ``sampler``
attached never runs ahead, because the observer has to see every
advance.
"""

from __future__ import annotations

import heapq
from typing import Callable, Protocol

from repro.errors import SimulationError

Callback = Callable[[], None]


class Sampler(Protocol):
    """Structural type of :attr:`EventQueue.sampler`: a pure observer
    told the cycle the clock is about to advance to."""

    def on_advance(self, now: int) -> None: ...


class EventQueue:
    """Deterministic priority queue of timed callbacks."""

    __slots__ = ("heap", "seq", "now", "run_ahead", "sampler")

    def __init__(self) -> None:
        #: The pending ``(time, seq, callback)`` triples, a ``heapq``
        #: heap, and the next sequence number.  Public for the one hot
        #: caller that pushes its own events (the core's step); everyone
        #: else goes through :meth:`schedule`.
        self.heap: list[tuple[int, int, Callback]] = []
        self.seq = 0
        #: Current simulation time in cpu cycles.
        self.now = 0
        #: True only inside a sampler-free :meth:`run` drain (see the
        #: module docstring).
        self.run_ahead = False
        #: Optional pure observer notified (``on_advance(when)``) just
        #: before the clock advances to each event's cycle — how the
        #: tracer samples counters without scheduling events of its
        #: own.  One ``is None`` test per event when absent.
        self.sampler: Sampler | None = None

    def schedule(self, when: int, callback: Callback) -> None:
        """Schedule ``callback`` to run at absolute cycle ``when``.

        Raises:
            SimulationError: if ``when`` is in the past.
        """
        if when < self.now:
            raise SimulationError(f"cannot schedule event at {when}, now is {self.now}")
        seq = self.seq
        self.seq = seq + 1
        heapq.heappush(self.heap, (when, seq, callback))

    def run(self) -> None:
        """Drain the queue, advancing :attr:`now` event by event.

        Without a sampler callbacks may run ahead of the queue; with
        one, it is told each advance before the event there fires.
        """
        heap = self.heap
        pop = heapq.heappop
        sampler = self.sampler
        if sampler is None:
            self.run_ahead = True
            try:
                while heap:
                    # seq values are unique, so the heap's tuple
                    # comparison never reaches the callbacks.
                    self.now, _seq, callback = pop(heap)
                    callback()
            finally:
                self.run_ahead = False
            return
        while heap:
            when, _seq, callback = pop(heap)
            if when > self.now:
                sampler.on_advance(when)
            self.now = when
            callback()
