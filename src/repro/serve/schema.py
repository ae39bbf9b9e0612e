"""Request canonicalization: JSON bodies → :class:`~repro.jobs.JobSpec`.

Every serving endpoint funnels through here, so two requests that mean
the same experiment always canonicalize to the same spec — and thus the
same sha256 content key — no matter how the client spelled them.  That
key is what the cache fast path, single-flight coalescing, and
``GET /v1/result/<key>`` all agree on.

Request shape (shared by ``/v1/run``, ``/v1/fdt``, and — minus
``policy`` — ``/v1/sweep``)::

    {
      "workload": "PageMine",          # Table 2 registry name, or ...
      "synthetic": {"cs_fraction": 0.2, "bus_lines": 4,
                    "iterations": 128, "compute_instr": 20000},
      "scale": 1.0,
      "policy": "fdt",                 # a repro.fdt.policies.POLICIES name
      "threads": 8,                    # static only
      "machine": {"cores": 32, "bandwidth": 1.0, "smt": 2}
    }

Validation failures raise :class:`~repro.errors.ServeRequestError`,
which the server maps to HTTP 400.
"""

from __future__ import annotations

import math

from repro.errors import ConfigError, JobError, ServeRequestError, WorkloadError
from repro.fdt.policies import POLICIES, adaptive_policies
from repro.jobs import JobSpec, PolicySpec, WorkloadRef
from repro.sim.config import MachineConfig

_ALL_POLICIES = tuple(POLICIES)
_FDT_POLICIES = adaptive_policies()
_MACHINE_KEYS = ("cores", "bandwidth", "smt")
_SYNTHETIC_KEYS = ("cs_fraction", "bus_lines", "iterations",
                   "compute_instr", "name")
#: The machine of every request without overrides (frozen, so shared).
_TABLE1 = MachineConfig.asplos08_baseline()


def _require_number(data: dict, key: str, default: float,
                    minimum: float | None = None,
                    strict: bool = False) -> float:
    """``data[key]`` as a finite float, ``>= minimum`` (``> minimum``
    if ``strict``)."""
    value = data.get(key, default)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not math.isfinite(value)):
        raise ServeRequestError(f"{key!r} must be a finite number")
    if minimum is not None and (value <= minimum if strict
                                else value < minimum):
        raise ServeRequestError(
            f"{key!r} must be {'>' if strict else '>='} {minimum}")
    return float(value)


def _require_int(data: dict, key: str, default: int, minimum: int) -> int:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServeRequestError(f"{key!r} must be an integer")
    if value < minimum:
        raise ServeRequestError(f"{key!r} must be >= {minimum}")
    return value


def machine_from_request(data: dict) -> MachineConfig:
    """Build the machine: the Table 1 baseline plus request overrides."""
    overrides = data.get("machine", {})
    if not isinstance(overrides, dict):
        raise ServeRequestError("'machine' must be an object")
    if not overrides:
        return _TABLE1
    unknown = set(overrides) - set(_MACHINE_KEYS)
    if unknown:
        raise ServeRequestError(
            f"unknown machine knob(s): {', '.join(sorted(unknown))}")
    try:
        return MachineConfig.baseline_with(**overrides)
    except ConfigError as exc:
        raise ServeRequestError(f"bad machine override: {exc}")


def workload_from_request(data: dict) -> WorkloadRef:
    """Resolve the workload reference (registry name or synthetic)."""
    name = data.get("workload")
    synthetic = data.get("synthetic")
    if (name is None) == (synthetic is None):
        raise ServeRequestError(
            "give exactly one of 'workload' (registry name) or "
            "'synthetic' (kernel knobs)")
    scale = _require_number(data, "scale", 1.0, minimum=0.0, strict=True)
    if name is not None:
        if not isinstance(name, str):
            raise ServeRequestError("'workload' must be a string")
        # Resolve through the registry now so typos fail fast with a
        # 400 instead of poisoning the pipeline with an unbuildable
        # spec, and so "pagemine" and "PageMine" map to one content key.
        from repro.workloads import get
        try:
            return WorkloadRef(name=get(name).name, scale=scale)
        except (WorkloadError, JobError) as exc:
            raise ServeRequestError(str(exc))
    if not isinstance(synthetic, dict):
        raise ServeRequestError("'synthetic' must be an object")
    unknown = set(synthetic) - set(_SYNTHETIC_KEYS)
    if unknown:
        raise ServeRequestError(
            f"unknown synthetic knob(s): {', '.join(sorted(unknown))}")
    try:
        return WorkloadRef.synthetic(
            cs_fraction=_require_number(synthetic, "cs_fraction", 0.0, 0.0),
            bus_lines=_require_int(synthetic, "bus_lines", 0, 0),
            iterations=_require_int(synthetic, "iterations", 128, 1),
            compute_instr=_require_int(synthetic, "compute_instr", 20_000, 1),
            name=str(synthetic.get("name", "synthetic")))
    except JobError as exc:
        raise ServeRequestError(str(exc))


def policy_from_request(data: dict, *, default: str = "static",
                        allowed: tuple[str, ...] = _ALL_POLICIES
                        ) -> PolicySpec:
    """Resolve the policy reference."""
    kind = data.get("policy", default)
    if kind not in allowed:
        raise ServeRequestError(
            f"policy must be one of {', '.join(allowed)}; got {kind!r}")
    threads = data.get("threads")
    if threads is not None and kind != "static":
        raise ServeRequestError("'threads' is only valid for policy "
                                "'static'")
    if threads is not None:
        if isinstance(threads, bool) or not isinstance(threads, int):
            raise ServeRequestError("'threads' must be an integer")
        if threads < 1:
            raise ServeRequestError("'threads' must be >= 1")
    try:
        return PolicySpec(kind=kind, threads=threads)
    except JobError as exc:
        raise ServeRequestError(str(exc))


def parse_run_request(data: dict) -> JobSpec:
    """``POST /v1/run``: one complete simulation."""
    workload, policy = workload_from_request(data), policy_from_request(data)
    config = machine_from_request(data)
    try:
        return JobSpec(workload=workload, policy=policy, config=config)
    except JobError as exc:  # a static team larger than the machine
        raise ServeRequestError(str(exc))


def request_body(spec: JobSpec) -> dict:
    """The ``/v1/run`` body that :func:`parse_run_request` reads back as
    ``spec``: the inverse every in-repo client builds its payload with.

    The server rebuilds the machine from the Table 1 baseline plus the
    three overrides, so a spec that differs anywhere else would silently
    run on a *different* machine: the body is parsed back and refused
    (:class:`~repro.errors.ServeRequestError`) unless it yields ``spec``.
    """
    ref = spec.workload
    if ref.kind == "synthetic":
        body: dict = {"synthetic": {key: getattr(ref, key)
                                    for key in _SYNTHETIC_KEYS}}
    else:
        body = {"workload": ref.name, "scale": ref.scale}
    machine: dict = {}
    if spec.config.num_cores != _TABLE1.num_cores:
        machine["cores"] = spec.config.num_cores
    if spec.config.smt_threads != _TABLE1.smt_threads:
        machine["smt"] = spec.config.smt_threads
    if spec.config.cpu_bus_ratio != _TABLE1.cpu_bus_ratio:
        machine["bandwidth"] = (_TABLE1.cpu_bus_ratio
                                / spec.config.cpu_bus_ratio)
    if machine:
        body["machine"] = machine
    body["policy"] = spec.policy.kind
    if spec.policy.threads is not None:
        body["threads"] = spec.policy.threads
    if parse_run_request(body) != spec:
        raise ServeRequestError(
            f"spec {spec.label!r} cannot be written as a /v1/run request "
            f"(machine overrides: {', '.join(_MACHINE_KEYS)} only)")
    return body


def parse_fdt_request(data: dict) -> JobSpec:
    """``POST /v1/fdt``: a feedback-driven policy decision."""
    return JobSpec(workload=workload_from_request(data),
                   policy=policy_from_request(data, default="fdt",
                                              allowed=_FDT_POLICIES),
                   config=machine_from_request(data))


def parse_sweep_request(data: dict) -> tuple[WorkloadRef, list[int],
                                             MachineConfig]:
    """``POST /v1/sweep``: static runs across thread counts.

    Returns the counts deduplicated, ascending, and clamped to the
    machine's core count (the sweep's documented semantics).
    """
    workload = workload_from_request(data)
    config = machine_from_request(data)
    raw = data.get("threads", [1, 2, 4, 8, 16, 32])
    if not isinstance(raw, list) or not raw:
        raise ServeRequestError("'threads' must be a non-empty list")
    counts: list[int] = []
    for item in raw:
        if isinstance(item, bool) or not isinstance(item, int) or item < 1:
            raise ServeRequestError(
                f"thread counts must be positive integers; got {item!r}")
        counts.append(item)
    clamped = [t for t in sorted(set(counts)) if t <= config.num_cores]
    if not clamped:
        raise ServeRequestError(
            f"no requested thread count fits the "
            f"{config.num_cores}-core machine")
    return workload, clamped, config
