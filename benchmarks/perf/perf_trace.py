"""Timing wrappers around each layer's public entry points.

The traced run installs these from the benchmark's own files: nothing
under ``src/`` knows it is being timed.  Every wrapped call records one
span — name, layer, start, end, the span that caused it, and the id of
the job or request it served — into a list that is written out when the
workload ends.  ``perf_stats.self_times`` turns the spans into per-layer
self time.

Parent links follow a ``contextvars`` variable, so they survive
``await`` points inside one asyncio task.  Executor threads do not
inherit context: a span opened on a thread with no current span hangs
under ``Recorder.thread_parent``, which the serving wrappers point at
the in-flight request's pipeline span (one closed-loop client means one
request in flight).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
from time import perf_counter
from typing import Any, Callable

_current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perf_trace_current", default=None)

_FIELDS = ("id", "parent", "op", "name", "layer", "start", "end", "note")


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self._rows: list[tuple] = []
        self._ids = itertools.count(1)
        self._originals: list[tuple[Any, str, Any]] = []
        #: Id of the job or request now being served.
        self.op = 0
        #: Parent for spans opened on a thread with no current span.
        self.thread_parent: int | None = None
        #: ``(op, counters)`` of every machine a job has finished with.
        self.sim_rows: list[tuple[int, dict]] = []
        self._machines: list[Any] = []

    # -- recording ----------------------------------------------------------

    def begin(self) -> tuple[int, int | None, contextvars.Token, float]:
        parent = _current.get()
        if parent is None:
            parent = self.thread_parent
        sid = next(self._ids)
        return sid, parent, _current.set(sid), perf_counter()

    def end(self, opened: tuple, name: str, layer: str,
            note: Any = None) -> None:
        end = perf_counter()
        sid, parent, token, start = opened
        _current.reset(token)
        self._rows.append((sid, parent, self.op, name, layer, start, end,
                           note))

    def spans(self) -> list[dict]:
        return [dict(zip(_FIELDS, row)) for row in self._rows]

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str, layer: str,
             note: Callable[..., Any] | None = None,
             after: Callable[..., None] | None = None) -> None:
        """Replace ``owner.attr`` with a version that records a span.

        ``note(*args)`` stores one value with the span; ``after(*args)``
        runs once the call has returned (outside the span).
        """
        fn = inspect.getattr_static(owner, attr)
        if isinstance(fn, (staticmethod, classmethod)):
            raise TypeError(f"{attr}: wrap plain functions and methods only")
        rec = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                opened = rec.begin()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    rec.end(opened, name, layer,
                            note(*args) if note else None)
                    if after:
                        after(*args)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                opened = rec.begin()
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.end(opened, name, layer,
                            note(*args) if note else None)
                    if after:
                        after(*args)

        self._originals.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)

    # -- simulator counters -------------------------------------------------

    def _fold_machines(self, *_args: Any) -> None:
        """Record the counters of every machine built since the last fold.

        Reads the same statistics objects ``machine_report`` reports
        (``test_perf_harness.py`` holds the two equal) without building
        its per-core lists: this runs once per request on ``serve-miss``.
        """
        machines, self._machines = self._machines, []
        for machine in machines:
            mem = machine.memsys
            coherence = mem.directory.stats
            bus, dram = mem.bus.stats, mem.dram.stats
            locks = machine.locks.stats
            self.sim_rows.append((self.op, {
                "cycles": machine.now,
                "retired_instructions":
                    sum(c.retired_instructions for c in machine.cores),
                "spin_cycles": sum(c.spin_cycles for c in machine.cores),
                "busy_core_cycles": machine.snapshot().busy_core_cycles,
                "l1.hits": sum(c.stats.hits for c in mem.l1s),
                "l1.misses": sum(c.stats.misses for c in mem.l1s),
                "l2.hits": sum(c.stats.hits for c in mem.l2s),
                "l2.misses": sum(c.stats.misses for c in mem.l2s),
                "l3.hits": mem.l3.hits,
                "l3.misses": mem.l3.misses,
                "coherence.c2c": coherence.cache_to_cache,
                "coherence.invalidations": coherence.invalidations_sent,
                "coherence.upgrades": coherence.upgrades,
                "ring.messages": machine.ring.stats.messages,
                "bus.transfers": bus.transfers,
                "bus.busy_cycles": bus.busy_cycles,
                "bus.wait_cycles": bus.total_wait_cycles,
                "dram.row_hits": dram.row_hits,
                "dram.row_conflicts": dram.row_conflicts,
                "dram.accesses": dram.accesses,
                "lock.acquisitions": locks.acquisitions,
                "lock.contended": locks.contended_acquisitions,
                "barrier.episodes": machine.barriers.stats.episodes,
            }))

    # -- the entry points of each layer ---------------------------------------

    def install_simulation_path(self) -> None:
        """Wrap what one job touches: jobs -> workloads -> fdt -> sim."""
        import repro.fdt.policies as policies
        import repro.jobs.api as jobs_api
        import repro.jobs.executor as executor
        import repro.jobs.spec as spec
        from repro.jobs.cache import ResultCache
        from repro.obs.runreg import RunRegistry
        from repro.sim.machine import Machine

        self.wrap(spec.JobSpec, "key", "JobSpec.key", "jobs")
        self.wrap(ResultCache, "get", "ResultCache.get", "jobs")
        self.wrap(ResultCache, "put", "ResultCache.put", "jobs")
        self.wrap(jobs_api, "execute_jobs", "execute_jobs", "jobs")
        self.wrap(jobs_api, "app_result_from_dict",
                  "app_result_from_dict", "jobs")
        self.wrap(executor, "app_result_to_dict",
                  "app_result_to_dict", "jobs")
        self.wrap(spec.JobSpec, "run", "JobSpec.run", "jobs",
                  after=self._fold_machines)
        self.wrap(spec.WorkloadRef, "build", "WorkloadRef.build",
                  "workloads")
        self.wrap(spec, "run_application", "run_application", "fdt")
        self.wrap(policies.FdtPolicy, "run_kernel",
                  "FdtPolicy.run_kernel", "fdt")
        self.wrap(policies.StaticPolicy, "run_kernel",
                  "StaticPolicy.run_kernel", "fdt")
        self.wrap(policies, "estimate", "estimate", "fdt")
        self.wrap(Machine, "__init__", "Machine", "sim",
                  after=lambda machine, *_: self._machines.append(machine))
        self.wrap(Machine, "run_serial", "Machine.run_serial", "sim")
        self.wrap(Machine, "run_parallel", "Machine.run_parallel", "sim")
        self.wrap(RunRegistry, "append", "RunRegistry.append", "obs")

    def install_batch_path(self) -> None:
        """Wrap the ``fig14-*`` path: experiments -> JobRunner -> a job."""
        import repro.experiments.fig14_combined as fig14
        from repro.jobs.api import JobRunner

        self.wrap(fig14, "run_fig14", "run_fig14", "experiments")
        self.wrap(JobRunner, "run", "JobRunner.run", "jobs")
        self.install_simulation_path()

    def install_serve_path(self) -> None:
        """Wrap the request path: http -> schema -> pipeline -> jobs."""
        import repro.serve.schema as schema
        import repro.serve.server as server
        from repro.jobs.api import JobRunner
        from repro.jobs.cache import ResultCache
        from repro.serve.pipeline import RequestPipeline

        rec = self
        read_request = server.read_request

        @functools.wraps(read_request)
        async def traced_read_request(reader):
            # The span starts when the handler begins to wait for the
            # next request, so it holds idle time; the load generator
            # clips it to the moment it started to send.
            opened = rec.begin()
            request = None
            try:
                request = await read_request(reader)
                return request
            finally:
                if request is not None:
                    rec.op += 1
                rec.end(opened, "read_request", "serve")

        self._originals.append((server, "read_request", read_request))
        server.read_request = traced_read_request

        resolve = RequestPipeline.resolve

        @functools.wraps(resolve)
        async def traced_resolve(pipeline, spec):
            opened = rec.begin()
            rec.thread_parent = opened[0]
            try:
                return await resolve(pipeline, spec)
            finally:
                rec.thread_parent = None
                rec.end(opened, "RequestPipeline.resolve", "serve")

        self._originals.append((RequestPipeline, "resolve", resolve))
        RequestPipeline.resolve = traced_resolve

        self.wrap(schema, "parse_run_request", "parse_run_request", "serve")
        self.wrap(server, "json_body", "json_body", "serve")
        self.wrap(server, "response_bytes", "response_bytes", "serve")
        self.wrap(server, "app_result_from_dict",
                  "app_result_from_dict", "jobs")
        self.wrap(ResultCache, "get_or_none", "ResultCache.get_or_none",
                  "jobs")
        self.wrap(JobRunner, "resolve", "JobRunner.resolve", "jobs",
                  note=lambda runner, specs: len(specs))
        self.install_simulation_path()
