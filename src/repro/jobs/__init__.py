"""Parallel experiment orchestration with a content-addressed cache.

Every paper figure is a grid of independent complete simulations, and
the simulator is deterministic — so a run's identity is its inputs.
This package turns (workload, scale, machine config, policy) into a
:class:`JobSpec` with a stable content hash, stores results in an
on-disk :class:`ResultCache`, executes misses serially or on a process
pool, and records everything in a :class:`RunManifest`.

Typical use::

    from repro.jobs import JobRunner, JobSpec, PolicySpec, ResultCache, WorkloadRef

    runner = JobRunner(cache=ResultCache(), jobs=8)
    spec = JobSpec(workload=WorkloadRef("PageMine", scale=0.5),
                   policy=PolicySpec.fdt(),
                   config=MachineConfig.asplos08_baseline())
    result = runner.run_one(spec)       # AppRunResult, maybe from cache
    print(runner.manifest.summary())
"""

from repro.jobs.api import JobRunner, cache_hit, raise_unserved
from repro.jobs.cache import ResultCache, default_cache_dir
from repro.jobs.executor import execute_jobs
from repro.jobs.manifest import RunManifest
from repro.jobs.preflight import (
    FATAL_KINDS,
    PreflightVerdict,
    preflight_key,
    run_preflight,
)
from repro.jobs.resolution import Resolution
from repro.jobs.results import app_result_from_dict, app_result_to_dict
from repro.jobs.spec import (
    SCHEMA_VERSION,
    JobSpec,
    PolicySpec,
    WorkloadRef,
    config_from_dict,
    config_to_dict,
)

__all__ = [
    "SCHEMA_VERSION",
    "JobRunner",
    "JobSpec",
    "PolicySpec",
    "WorkloadRef",
    "Resolution",
    "ResultCache",
    "RunManifest",
    "FATAL_KINDS",
    "PreflightVerdict",
    "preflight_key",
    "raise_unserved",
    "run_preflight",
    "cache_hit",
    "execute_jobs",
    "default_cache_dir",
    "app_result_to_dict",
    "app_result_from_dict",
    "config_to_dict",
    "config_from_dict",
]
