"""The one record, and the one status vocabulary, from worker to wire.

Every layer between a simulation and its caller — the executor, the
:class:`~repro.jobs.api.JobRunner`, the serving pipeline, the HTTP
server — answers the same question about one spec: *what happened to
it?*  A :class:`Resolution` is that answer.  Whoever learns it first
mints the record; every layer above passes it on unchanged or relabels
it with :func:`dataclasses.replace`.  The manifest / run-registry row is
built from it, so a row cannot contradict the resolution it describes.

``docs/jobs.md`` has the table of the six statuses: who mints each,
with which ``backend``, its HTTP code, and whether it is retried,
cached and recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import JobError
from repro.fdt.runner import AppRunResult
from repro.jobs.results import app_result_from_dict

STATUS_HIT = "hit"
STATUS_COMPUTED = "computed"
STATUS_COALESCED = "coalesced"
STATUS_SHED = "shed"
STATUS_TIMEOUT = "timeout"
STATUS_FAILED = "failed"

#: The statuses that carry a result.
SERVED = (STATUS_HIT, STATUS_COMPUTED, STATUS_COALESCED)


@dataclass(frozen=True, slots=True)
class Resolution:
    """What happened to one spec (never raises; see :attr:`ok`)."""

    key: str
    status: str
    #: Who produced (or refused) it: ``memo`` | ``cache`` | ``serial`` |
    #: ``pool`` | ``serial-fallback`` | ``pipeline``.
    backend: str
    #: Serialized result dict; ``None`` unless the status is served.
    result: dict | None = None
    error: str = ""
    #: Seconds: in-worker execution time for completed jobs, wait time
    #: for timeouts, 0 for hits.
    wall_time: float = 0.0
    #: Directory the job's trace artifacts were written to ("" when the
    #: batch ran untraced or the job did not complete).
    trace_path: str = ""
    #: Whether a failure looks host-transient (worker crash, I/O error)
    #: rather than deterministic (a :class:`~repro.errors.ReproError`
    #: from the simulation, which would fail identically if retried).
    transient: bool = False
    #: Advertised back-off for shed requests (``Retry-After`` seconds).
    retry_after: float = 0.0
    #: The decoded result, when the minting site already paid for the
    #: decode (a cache hit is validated by decoding it).
    app: AppRunResult | None = field(default=None, compare=False,
                                     repr=False)

    @property
    def ok(self) -> bool:
        return self.result is not None

    def app_result(self) -> AppRunResult:
        """The deserialized result (call only when :attr:`ok`)."""
        if self.app is not None:
            return self.app
        if self.result is None:
            raise JobError(f"job {self.key} has no result: {self.status}"
                           + (f" ({self.error})" if self.error else ""))
        return app_result_from_dict(self.result)
