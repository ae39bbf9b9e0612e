"""Job specifications: one complete simulation, canonically serialized.

A :class:`JobSpec` names everything a run depends on — the workload
(:class:`WorkloadRef`), the threading policy (:class:`PolicySpec`), and
the :class:`~repro.sim.config.MachineConfig` — and nothing it does not.
Because the simulator is deterministic, that triple fully determines the
run's outputs, so its canonical JSON form (sorted keys, no whitespace)
hashed with SHA-256 is a sound content address for the result cache.

The schema version is part of the hashed payload *and* of the cache
directory layout: bump :data:`SCHEMA_VERSION` whenever the simulator's
timing model, the result serialization, or the spec encoding changes,
and every stale cache entry self-invalidates.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path

from repro.errors import JobError
from repro.fdt.policies import POLICIES, ThreadingPolicy
from repro.fdt.runner import Application, AppRunResult, run_application
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine

#: Version tag of the job-spec encoding and result serialization.
#: Bump on any change that alters simulated outputs or their encoding.
#: v3: the key hashes the model only (``MachineConfig`` lost its two
#: observer fields) and ``WorkloadRef`` gained ``params``.
#: v4: ``MachineConfig`` lost the branch model's three fields.
SCHEMA_VERSION = 4

_WORKLOAD_KINDS = ("registry", "synthetic")

#: ``json.dumps(sort_keys=True, separators=(",", ":"))``, built once.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True, slots=True)
class WorkloadRef:
    """A declarative, hashable reference to an application to build.

    ``kind="registry"`` names a Table 2 workload by its registry name;
    ``kind="synthetic"`` describes a :func:`~repro.workloads.synthetic.
    build_synthetic` kernel by its knobs (the crossover study's case).
    Unlike an ``AppFactory`` callable, a ref can cross process
    boundaries and contributes to the job's content hash.
    """

    name: str
    scale: float = 1.0
    kind: str = "registry"
    # -- synthetic knobs (used only when kind == "synthetic") ----------
    cs_fraction: float = 0.0
    bus_lines: int = 0
    iterations: int = 128
    compute_instr: int = 20_000
    #: Extra keyword arguments of the registry builder, hashed: sorted
    #: ``(name, value)`` pairs, whatever order (or JSON lists) they came in.
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _WORKLOAD_KINDS:
            raise JobError(f"unknown workload kind {self.kind!r}")
        if not self.name:
            raise JobError("workload name must be non-empty")
        if self.params and self.kind != "registry":
            raise JobError("params are only meaningful for registry workloads")
        check_scale(self.scale)
        if self.kind == "synthetic":
            _check_synthetic_knobs(self)
        object.__setattr__(self, "params", tuple(sorted(map(tuple, self.params))))

    @classmethod
    def synthetic(cls, cs_fraction: float = 0.0, bus_lines: int = 0,
                  iterations: int = 128, compute_instr: int = 20_000,
                  name: str = "synthetic") -> "WorkloadRef":
        """Reference a dial-a-limiter synthetic kernel by its knobs."""
        return cls(name=name, kind="synthetic", cs_fraction=cs_fraction,
                   bus_lines=bus_lines, iterations=iterations,
                   compute_instr=compute_instr)

    @property
    def label(self) -> str:
        """Human-readable identity for tables and manifests."""
        if self.kind == "synthetic":
            return (f"{self.name}(cs={self.cs_fraction}, "
                    f"lines={self.bus_lines}, iters={self.iterations})")
        extra = "".join(f", {k}={v}" for k, v in self.params)
        return f"{self.name}@{self.scale:g}{extra}"

    def build(self) -> Application:
        """Materialize the application (real computed kernel state)."""
        if self.kind == "synthetic":
            from repro.workloads.synthetic import build_synthetic
            return build_synthetic(cs_fraction=self.cs_fraction,
                                   bus_lines=self.bus_lines,
                                   iterations=self.iterations,
                                   compute_instr=self.compute_instr,
                                   name=self.name)
        from repro.workloads import get
        return get(self.name).build(self.scale, **dict(self.params))

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _WORKLOAD_FIELDS}

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadRef":
        return cls(**data)


_WORKLOAD_FIELDS = tuple(f.name for f in fields(WorkloadRef))


def check_scale(scale: float) -> float:
    """``scale`` if it is a finite input-set factor > 0, else JobError.

    NaN fails too; 0 and negative factors would all run a builder's
    smallest input, each under its own content key."""
    if not 0.0 < scale < math.inf:
        raise JobError(f"scale must be finite and > 0; got {scale}")
    return scale


def _check_synthetic_knobs(ref: WorkloadRef) -> None:
    """Refuse knobs ``build_synthetic`` would refuse, before a key exists."""
    if not 0.0 <= ref.cs_fraction < 1.0:
        raise JobError(f"cs_fraction must be in [0, 1); got {ref.cs_fraction}")
    if ref.bus_lines < 0 or ref.compute_instr < 0:
        raise JobError("bus_lines and compute_instr must be >= 0")
    if ref.iterations < 1:
        raise JobError("iterations must be >= 1")


@dataclass(frozen=True, slots=True)
class PolicySpec:
    """A declarative, hashable reference to a threading policy.

    ``kind`` is a name of :data:`~repro.fdt.policies.POLICIES`.
    ``threads`` is meaningful only for ``kind="static"``; ``None`` keeps
    :class:`~repro.fdt.policies.StaticPolicy`'s one-thread-per-core
    default (and its distinct ``static-ncores`` policy name, so the two
    spellings hash — and report — differently, exactly as they do when
    constructed directly).
    """

    kind: str
    threads: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in POLICIES:
            raise JobError(f"unknown policy kind {self.kind!r}; "
                           f"expected one of {', '.join(POLICIES)}")
        if self.threads is not None and self.kind != "static":
            raise JobError("threads is only meaningful for static policies")
        if self.threads is not None and self.threads < 1:
            raise JobError("static thread count must be >= 1")

    @classmethod
    def static(cls, threads: int | None = None) -> "PolicySpec":
        return cls(kind="static", threads=threads)

    @classmethod
    def fdt(cls) -> "PolicySpec":
        return cls(kind="fdt")

    @classmethod
    def sat(cls) -> "PolicySpec":
        return cls(kind="sat")

    @classmethod
    def bat(cls) -> "PolicySpec":
        return cls(kind="bat")

    @property
    def label(self) -> str:
        if self.kind == "static":
            return f"static-{self.threads if self.threads else 'ncores'}"
        return self.kind

    def build(self) -> ThreadingPolicy:
        """Materialize the policy object."""
        if self.kind == "static":
            return POLICIES[self.kind](self.threads)
        return POLICIES[self.kind]()

    def to_dict(self) -> dict:
        return {"kind": self.kind, "threads": self.threads}

    @classmethod
    def from_dict(cls, data: dict) -> "PolicySpec":
        return cls(**data)


def config_to_dict(config: MachineConfig) -> dict:
    """Flatten a machine config to JSON-safe primitives, field by field."""
    return {f.name: getattr(config, f.name) for f in fields(MachineConfig)}


def config_from_dict(data: dict) -> MachineConfig:
    """Rebuild a machine config from :func:`config_to_dict` output."""
    return MachineConfig(**data)


@lru_cache(maxsize=64)
def _config_hasher(config: MachineConfig) -> "hashlib._Hash":
    """sha256 fed ``{"config":<config>,``; shared: copy, never update."""
    opening = '{"config":' + _CANONICAL.encode(config_to_dict(config)) + ","
    return hashlib.sha256(opening.encode("utf-8"))


@dataclass(frozen=True, slots=True)
class JobSpec:
    """One complete simulation: workload x policy x machine."""

    workload: WorkloadRef
    policy: PolicySpec
    config: MachineConfig

    def __post_init__(self) -> None:
        # A larger team would run clamped, under a key of its own.
        threads = self.policy.threads
        if threads is not None and threads > self.config.num_thread_slots:
            raise JobError(
                f"a static team of {threads} threads exceeds the machine's "
                f"{self.config.num_thread_slots} hardware thread slots")

    @property
    def label(self) -> str:
        return f"{self.workload.label} under {self.policy.label}"

    def to_dict(self) -> dict:
        return {
            "workload": self.workload.to_dict(),
            "policy": self.policy.to_dict(),
            "config": config_to_dict(self.config),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        return cls(
            workload=WorkloadRef.from_dict(data["workload"]),
            policy=PolicySpec.from_dict(data["policy"]),
            config=config_from_dict(data["config"]),
        )

    def key(self) -> str:
        """Stable content hash of the spec (plus the schema version).

        Canonical form, unchanged: the :meth:`to_dict` payload plus
        ``"schema"``, sorted keys, no whitespace, floats via ``repr``.
        ``"config"`` sorts first, so that opening's sha256 state is built
        once per config (a bounded memo) and copied; only the policy,
        schema and workload are encoded per call.
        """
        rest = {"policy": self.policy.to_dict(), "schema": SCHEMA_VERSION,
                "workload": self.workload.to_dict()}
        hasher = _config_hasher(self.config).copy()
        hasher.update(_CANONICAL.encode(rest)[1:].encode("utf-8"))
        return hasher.hexdigest()

    def run(self, trace_dir: str | Path | None = None) -> AppRunResult:
        """Execute the job in this process (deterministic).

        Args:
            trace_dir: when given, the run records a trace
                (:mod:`repro.trace`) and writes its artifacts under
                ``trace_dir/<self.key()>/``.  The returned result is
                bit-identical either way — the tracer is a pure
                observer — so tracing never perturbs the cache.
        """
        app, policy = self.workload.build(), self.policy.build()
        if trace_dir is None:
            return run_application(app, policy, self.config)
        from repro.trace import TraceRecorder, write_artifacts
        recorder = TraceRecorder()
        with Machine(self.config, observer=recorder) as machine:
            result = run_application(app, policy, machine=machine)
        write_artifacts(recorder.data, Path(trace_dir) / self.key())
        return result
