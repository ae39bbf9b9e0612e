"""The twelve evaluated workloads (paper Table 2), imported on demand:
:func:`get` imports the one module a name lives in, :func:`all_specs`
the whole roster, and each module registers its workload."""

from importlib import import_module

from repro.errors import WorkloadError
from repro.workloads.base import _REGISTRY, Category, WorkloadSpec

#: Table 2's modules in its order; each registers the name it case-folds.
_ROSTER = ("pagemine", "isort", "gsearch", "ep",      # CS-limited
           "ed", "convert", "transpose", "mtwister",  # BW-limited
           "bt", "mg", "bscholes", "sconv")           # scalable


def get(name: str) -> WorkloadSpec:
    """Look up a workload by its Table 2 name: the exact name, else the
    one name that matches ignoring case, so ``repro run pagemine`` and
    ``{"workload": "pagemine"}`` both resolve to ``PageMine``."""
    if name in _REGISTRY:
        return _REGISTRY[name]
    folded = name.lower()
    for module in (folded,) if folded in _ROSTER else _ROSTER:
        import_module(f"{__name__}.{module}")
    matches = [s for s in _REGISTRY.values() if s.name.lower() == folded]
    if len(matches) != 1:
        known = ", ".join(sorted(_REGISTRY))
        raise WorkloadError(f"unknown workload {name!r}; known: {known}")
    return matches[0]


def all_specs() -> list[WorkloadSpec]:
    """All twelve workloads in Table 2 order."""
    return [get(module) for module in _ROSTER]


__all__ = ["Category", "WorkloadSpec", "all_specs", "get"]
