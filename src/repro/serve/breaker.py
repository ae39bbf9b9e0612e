"""Circuit breaker for the serving pipeline: fail fast, probe, recover.

When the jobs backend is genuinely broken (cache device gone, workers
dying on arrival), every admitted request burns a worker slot and a
full batch timeout before failing — the queue stays saturated with
doomed work and healthy cache hits queue behind it.  The breaker cuts
that loop:

* **closed** (normal): batches flow; ``threshold`` *consecutive*
  totally-failed batches trip the breaker (one mixed batch — any
  served request — resets the streak);
* **open**: new leaders are shed immediately (HTTP 429, the same
  fast-shed path as admission control) without touching the queue.
  Recovery is probed on a drain-rate signal rather than a wall clock:
  after ``probe_after`` shed decisions — i.e. once enough demand has
  arrived to make a probe informative — the breaker half-opens.  Any
  batch completing meanwhile (a straggler from before the trip) also
  re-arms the probe, since it proves the backend can still drain;
* **half-open**: exactly one leader is admitted as a probe; its batch
  succeeding closes the breaker, failing re-opens it.

Deliberately clock-free: transitions depend only on the sequence of
batch outcomes and shed decisions, so a chaos run with a fixed fault
plan walks the state machine identically every time.

State changes publish to the shared registry
(``repro_serve_breaker_state`` gauge, coded closed=0 / half-open=1 /
open=2, and ``repro_serve_breaker_transitions_total``).
"""

from __future__ import annotations

import threading

from repro.obs import get_logger
from repro.obs.registry import default_registry

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"

_STATE_CODE = {STATE_CLOSED: 0, STATE_HALF_OPEN: 1, STATE_OPEN: 2}

_log = get_logger("serve")


class CircuitBreaker:
    """The deterministic state machine described in the module docstring."""

    def __init__(self, threshold: int = 5, probe_after: int = 8) -> None:
        self.threshold = max(1, threshold)
        self.probe_after = max(1, probe_after)
        self._state = STATE_CLOSED
        self._consecutive_failures = 0
        self._sheds_while_open = 0
        self._probe_outstanding = False
        self._lock = threading.Lock()

    @property
    def state(self) -> str:
        return self._state

    def allow(self) -> bool:
        """May a new leader enter the queue right now?

        While open, every denial counts toward the probe budget; the
        ``probe_after``-th denial half-opens the breaker so the *next*
        arrival probes.  While half-open, exactly one caller is
        admitted (the probe); the rest are denied until it resolves.
        """
        with self._lock:
            if self._state == STATE_CLOSED:
                return True
            if self._state == STATE_OPEN:
                self._sheds_while_open += 1
                if self._sheds_while_open >= self.probe_after:
                    self._transition(STATE_HALF_OPEN)
                return False
            # Half-open: admit one probe, deny everyone else.
            if self._probe_outstanding:
                return False
            self._probe_outstanding = True
            return True

    def record_success(self) -> None:
        """A batch served at least one request."""
        with self._lock:
            self._consecutive_failures = 0
            self._probe_outstanding = False
            if self._state != STATE_CLOSED:
                self._transition(STATE_CLOSED)

    def record_failure(self) -> None:
        """A batch failed outright (every request unserved)."""
        with self._lock:
            self._probe_outstanding = False
            if self._state == STATE_HALF_OPEN:
                self._transition(STATE_OPEN)
                return
            self._consecutive_failures += 1
            if self._state == STATE_CLOSED \
                    and self._consecutive_failures >= self.threshold:
                self._transition(STATE_OPEN)

    def note_drain(self) -> None:
        """A drain observation arrived (some batch completed somewhere).

        While open this is evidence the backend still finishes work, so
        the next arrival probes immediately instead of waiting out the
        shed budget.
        """
        with self._lock:
            if self._state == STATE_OPEN:
                self._transition(STATE_HALF_OPEN)

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "threshold": self.threshold,
                "probe_after": self.probe_after,
                "consecutive_failures": self._consecutive_failures,
            }

    def _transition(self, state: str) -> None:
        """Move to ``state`` and publish (callers hold the lock)."""
        previous, self._state = self._state, state
        if state == STATE_OPEN:
            self._sheds_while_open = 0
        registry = default_registry()
        registry.gauge(
            "repro_serve_breaker_state",
            "Circuit breaker state (0 closed, 1 half-open, 2 open)."
        ).set(_STATE_CODE[state])
        registry.counter(
            "repro_serve_breaker_transitions_total",
            "Circuit breaker transitions by edge.", label="edge"
        ).inc(f"{previous}->{state}")
        _log.warning("circuit breaker transition",
                     extra={"breaker_from": previous, "breaker_to": state,
                            "failures": self._consecutive_failures})
