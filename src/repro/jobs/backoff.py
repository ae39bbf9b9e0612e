"""Exponential backoff with deterministic jitter for job retries.

Retrying transient failures back-to-back just re-hits whatever broke;
classic exponential backoff fixes the pacing but naive ``random``
jitter makes every run unreproducible — the opposite of what a
content-addressed, bit-identical pipeline wants.  Here jitter is
*derived*, not drawn: each delay is scaled by a factor in
``[0.5, 1.0)`` computed from a SHA-256 over ``(0, key, attempt)``, so
two runs of the same batch sleep identically while distinct keys still
decorrelate (no thundering herd when a shared dependency recovers).

The three constants are read at call time, so a test can patch them.
"""

from __future__ import annotations

import hashlib

#: Extra submissions :class:`~repro.jobs.api.JobRunner` grants a job
#: whose failure looks host-transient.
RETRY_BUDGET = 2
#: First retry delay in seconds; it doubles per round up to the cap.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0


def _jitter_fraction(key: str, attempt: int) -> float:
    """Deterministic factor in ``[0.5, 1.0)`` for one (key, attempt)."""
    digest = hashlib.sha256(f"0:{key}:{attempt}".encode("utf-8")).digest()
    unit = int.from_bytes(digest[:8], "big") / 2 ** 64
    return 0.5 + unit / 2


def backoff_delay(key: str, attempt: int) -> float:
    """Seconds to wait before retry ``attempt`` (1-based) of ``key``."""
    if attempt < 1:
        raise ValueError("attempt is 1-based")
    raw = min(BACKOFF_CAP, BACKOFF_BASE * 2 ** (attempt - 1))
    return raw * _jitter_fraction(key, attempt)

