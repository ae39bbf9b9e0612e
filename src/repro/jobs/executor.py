"""Job execution backends: in-process serial and process-pool parallel.

Every complete simulation is independent, so a batch of jobs is
embarrassingly parallel.  :func:`execute_jobs` picks the backend:

* ``jobs <= 1`` (or a single spec) runs serially in-process;
* otherwise a :class:`concurrent.futures.ProcessPoolExecutor` fans the
  specs out — **one** pool round, with three failure safety valves:

  - **spawn failure** (the pool cannot be created or fed — restricted
    sandboxes, missing semaphores): the whole batch gracefully falls
    back to the serial backend;
  - **crashed workers** (``BrokenProcessPool``): the affected jobs are
    reported ``failed`` + ``transient`` — never re-run in-process, since
    whatever killed the worker would kill the caller too.  Retrying is
    the caller's business: :class:`~repro.jobs.api.JobRunner` owns the
    one backoff loop;
  - **per-job timeout**: a job that produces no result within
    ``timeout`` seconds of being waited on is reported as timed out and
    its future cancelled (best effort — an already-running worker task
    cannot be interrupted, so the pool is shut down without waiting).

Each spec comes back as one :class:`~repro.jobs.resolution.Resolution`
(``computed`` | ``failed`` | ``timeout``).  Results cross the process
boundary as the JSON-safe dicts of :mod:`repro.jobs.results`; going in,
a job carries the parent's ``executor.job`` fault decision (the plan's
counters and firing log live in the parent; a worker only performs).
"""

from __future__ import annotations

import time
from concurrent import futures
from pathlib import Path
from typing import Sequence

from repro.errors import ReproError
from repro.faults import hooks as fault_hooks
from repro.faults.plan import FaultRule
from repro.jobs.resolution import (
    STATUS_COMPUTED,
    STATUS_FAILED,
    STATUS_TIMEOUT,
    Resolution,
)
from repro.jobs.results import app_result_to_dict
from repro.jobs.spec import JobSpec
from repro.obs import log as obs_log
from repro.obs.tracing import span

_FAULT_SITE = "executor.job"
_log = obs_log.get_logger("jobs")


def _execute_payload(spec_dict: dict, trace_dir: str | None = None) -> dict:
    """Run one job from its dict form and serialize the outcome.

    With ``trace_dir`` a tracer is attached and its artifacts written.
    Tests monkeypatch this name to inject failures (forked workers
    inherit the patch).
    """
    spec = JobSpec.from_dict(spec_dict)
    return app_result_to_dict(spec.run(trace_dir=trace_dir))


def _pool_entry(spec_dict: dict, trace_dir: str | None = None,
                fault: FaultRule | None = None) -> dict:
    """Worker-side wrapper: run the job and report its execution time."""
    fault_hooks.perform(fault, _FAULT_SITE)
    started = time.perf_counter()
    result = _execute_payload(spec_dict, trace_dir)
    elapsed = time.perf_counter() - started
    _log.debug("pool job done", extra={
        "workload": spec_dict["workload"]["name"],
        "policy": spec_dict["policy"]["kind"], "elapsed": elapsed})
    return {"result": result, "elapsed": elapsed}


def _failed(key: str, exc: BaseException, started: float,
            backend: str) -> Resolution:
    # A dead worker (BrokenProcessPool) is transient like any non-sim
    # failure; the runner's backoff loop decides whether to resubmit.
    crashed = isinstance(exc, futures.BrokenExecutor)
    return Resolution(
        key=key, status=STATUS_FAILED, backend=backend,
        error=("worker crashed: " if crashed else "")
        + f"{type(exc).__name__}: {exc}",
        wall_time=time.perf_counter() - started,
        transient=not isinstance(exc, ReproError))


def _computed(key: str, result: dict, wall_time: float, backend: str,
              trace_dir: str | None) -> Resolution:
    return Resolution(
        key=key, status=STATUS_COMPUTED, backend=backend, result=result,
        wall_time=wall_time,
        trace_path="" if trace_dir is None else str(Path(trace_dir) / key))


def run_serial(specs: Sequence[JobSpec],
               backend: str = "serial",
               trace_dir: str | None = None) -> list[Resolution]:
    """Execute every spec in-process, in order."""
    resolutions = []
    for spec in specs:
        key = spec.key()
        started = time.perf_counter()
        try:
            with span("sim.run", key=key, workload=spec.workload.label,
                      policy=spec.policy.label, backend=backend):
                fault_hooks.maybe_raise(_FAULT_SITE, key=key,
                                        workload=spec.workload.name)
                result = _execute_payload(spec.to_dict(), trace_dir)
        except Exception as exc:
            resolutions.append(_failed(key, exc, started, backend))
        else:
            resolutions.append(_computed(
                key, result, time.perf_counter() - started, backend,
                trace_dir))
    return resolutions


def run_parallel(specs: Sequence[JobSpec], jobs: int,
                 timeout: float | None = None,
                 trace_dir: str | None = None) -> list[Resolution]:
    """Execute specs in one process-pool round (see module docstring)."""
    keys = [spec.key() for spec in specs]
    # Workers log as the parent does: its choice rides in as the pool
    # initializer's arguments (nothing to apply if it never configured).
    logging_choice = obs_log.current()
    try:
        pool = futures.ProcessPoolExecutor(
            max_workers=min(jobs, len(specs)),
            initializer=obs_log.configure if logging_choice else None,
            initargs=logging_choice or ())
        futs = [pool.submit(_pool_entry, spec.to_dict(), trace_dir,
                            fault_hooks.decide(_FAULT_SITE, key=key,
                                               workload=spec.workload.name))
                for key, spec in zip(keys, specs)]
    except Exception:
        # The pool could not be created or fed at all: run the batch
        # serially rather than failing it.
        return run_serial(specs, backend="serial-fallback",
                          trace_dir=trace_dir)
    resolutions = []
    timed_out = False
    for key, fut in zip(keys, futs):
        started = time.perf_counter()
        try:
            # Clock-free timeout forcing: an armed plan can declare
            # this wait expired without consuming the real budget.
            if fault_hooks.forced_timeout("executor.timeout", key=key):
                raise futures.TimeoutError
            payload = fut.result(timeout=timeout)
        except futures.TimeoutError:
            fut.cancel()
            timed_out = True
            resolutions.append(Resolution(
                key=key, status=STATUS_TIMEOUT, backend="pool",
                error=f"no result within {timeout}s",
                wall_time=time.perf_counter() - started))
        except Exception as exc:
            resolutions.append(_failed(key, exc, started, "pool"))
        else:
            resolutions.append(_computed(
                key, payload["result"], payload["elapsed"], "pool",
                trace_dir))
    # A timed-out task cannot be interrupted; don't wait on it.
    pool.shutdown(wait=not timed_out, cancel_futures=True)
    return resolutions


def execute_jobs(specs: Sequence[JobSpec], jobs: int = 1,
                 timeout: float | None = None,
                 trace_dir: str | None = None) -> list[Resolution]:
    """Execute specs with the right backend for the requested width."""
    if jobs <= 1 or len(specs) <= 1:
        return run_serial(specs, trace_dir=trace_dir)
    return run_parallel(specs, jobs=jobs, timeout=timeout,
                        trace_dir=trace_dir)
