"""The fault-site registry: every injection hook compiled into the host.

A *site* is a named point in a host layer where
:mod:`repro.faults.hooks` consults the armed injector.  The registry is
the single source of truth for which sites exist and which fault kinds
each supports — plan validation, the chaos CLI's ``--list-sites``, and
``docs/faults.md`` all read from it.

Sites deliberately cover only host-layer boundaries (cache I/O, job
executors, the serving socket, timeout arbitration).  None of them can
touch :mod:`repro.sim`: a simulation that runs at all runs bit-identical
to a fault-free execution.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Fault kinds (shared vocabulary across sites).
KIND_IO_ERROR = "io-error"    #: raise an injected OSError at the site
KIND_TORN = "torn"            #: truncate the payload mid-write/mid-read
KIND_CORRUPT = "corrupt"      #: flip the payload into garbage bytes
KIND_CRASH = "crash"          #: raise an injected RuntimeError
KIND_ABORT = "abort"          #: kill the worker process (pool only)
KIND_LATENCY = "latency"      #: sleep ``latency`` seconds, then continue
KIND_DROP = "drop"            #: close the connection before responding
KIND_SLOW = "slow"            #: stall the read path (slow-loris)
KIND_FORCE = "force"          #: report a timeout without waiting

#: The kinds that sleep their rule's ``latency``.
SLEEP_KINDS = (KIND_LATENCY, KIND_SLOW)


@dataclass(frozen=True, slots=True)
class FaultSite:
    """One registered injection point."""

    name: str
    #: Host layer the hook lives in (``jobs`` / ``serve`` / ``obs``).
    layer: str
    kinds: tuple[str, ...]
    description: str


_SITE_LIST = (
    FaultSite(
        name="cache.read", layer="jobs",
        kinds=(KIND_IO_ERROR, KIND_TORN, KIND_CORRUPT),
        description="Result-cache entry read: injected I/O errors, torn "
                    "payloads, and corrupt bytes (all surface as misses; "
                    "corrupt entries are quarantined, never served)."),
    FaultSite(
        name="cache.write", layer="jobs",
        kinds=(KIND_IO_ERROR,),
        description="Result-cache entry write: the store raises before "
                    "the atomic replace; the job result is still "
                    "returned, only the cache stays cold."),
    FaultSite(
        name="executor.job", layer="jobs",
        kinds=(KIND_CRASH, KIND_ABORT, KIND_LATENCY),
        description="Per-job execution: injected worker crashes "
                    "(exception), hard aborts (process death, pool "
                    "only), and artificial latency."),
    FaultSite(
        name="executor.timeout", layer="jobs",
        kinds=(KIND_FORCE,),
        description="Pool wait arbitration: force a job to be reported "
                    "as timed out without consuming wall-clock time."),
    FaultSite(
        name="serve.connection", layer="serve",
        kinds=(KIND_DROP,),
        description="Accepted connection: drop it after the request is "
                    "read, before any response bytes are written."),
    FaultSite(
        name="serve.read", layer="serve",
        kinds=(KIND_SLOW,),
        description="Request read path: stall ``latency`` seconds "
                    "between accept and dispatch (slow-loris)."),
    FaultSite(
        name="serve.batch_timeout", layer="serve",
        kinds=(KIND_FORCE,),
        description="Batch wait arbitration: force one pipeline batch "
                    "to resolve as timed out without waiting on the "
                    "configured request_timeout."),
)

#: Name -> :class:`FaultSite` for every compiled-in hook.
SITES: dict[str, FaultSite] = {site.name: site for site in _SITE_LIST}


def sites_table() -> list[tuple[str, str, str, str]]:
    """``(site, layer, kinds, description)`` rows for CLI/doc rendering."""
    return [(s.name, s.layer, ",".join(s.kinds), s.description)
            for s in _SITE_LIST]
