"""Deterministic fault injection for the host layers around the sim.

The simulator itself is deterministic and pure; everything that can
*actually* fail in production is host plumbing — cache I/O, worker
processes, sockets, timeouts.  This package makes those failures a
first-class, reproducible input:

* :mod:`repro.faults.plan` — a declarative, JSON-loadable
  :class:`FaultPlan`: which site, which fault kind, and a deterministic
  trigger schedule (after / every / probability / max_fires) under one
  seed.
* :mod:`repro.faults.sites` — the registry of injection points compiled
  into the host layers, the single source of truth for plan validation,
  ``repro chaos --list-sites``, and ``docs/faults.md``.
* :mod:`repro.faults.injector` — the armed :class:`FaultInjector`:
  per-rule seeded RNG streams, a firing log, and obs emission
  (``repro_faults_injected_total``, ``faults.inject`` spans).
* :mod:`repro.faults.hooks` — the functions host code calls at each
  site; every hook is a single ``None``-check when no plan is armed.
* :mod:`repro.faults.chaos` — the harness behind ``repro chaos``: runs
  a plan against a real batch or a live server and judges the recovery
  invariants (imported lazily — it pulls in :mod:`repro.serve`).

Injection is a pure observer of the simulator: no site can reach
:mod:`repro.sim`, so any simulation that completes produces cycle
counts bit-identical to a fault-free run — the core invariant every
chaos run re-checks.
"""

from repro.faults.injector import (
    FaultFiring,
    FaultInjector,
    InjectedCrashError,
    InjectedFaultError,
    InjectedIOError,
    active,
    injected,
    install,
    uninstall,
)
from repro.faults.plan import PLAN_SCHEMA, FaultPlan, FaultRule
from repro.faults.sites import SITES, FaultSite, sites_table

__all__ = [
    "PLAN_SCHEMA",
    "SITES",
    "FaultFiring",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "FaultSite",
    "InjectedCrashError",
    "InjectedFaultError",
    "InjectedIOError",
    "active",
    "injected",
    "install",
    "sites_table",
    "uninstall",
]
