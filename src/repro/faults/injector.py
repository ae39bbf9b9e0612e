"""The armed fault injector: deterministic decisions plus a firing log.

One :class:`FaultInjector` wraps one :class:`~repro.faults.plan.FaultPlan`
and answers the only question a hook ever asks: *does a rule fire here,
and as what?*  Decisions are deterministic: each rule owns a
:class:`random.Random` stream seeded from ``(plan seed, rule index)``
and advances it only when a probability draw is actually needed, so the
same plan against the same (serially executed) workload fires the same
faults in the same order — the property ``tests/test_faults.py`` locks
in.

Every firing is appended to an in-memory log (site, kind, rule index,
occurrence number, context), counted in the shared metrics registry
(``repro_faults_injected_total``), and emitted as a ``faults.inject``
span through :mod:`repro.obs.tracing` — so a chaos run's injections are
visible through exactly the same telemetry as the recoveries they
provoke.

The injector is a parent-process object.  Process-pool workers touch
exactly one fault site, ``executor.job``, and the executor decides its
rules here in the parent at submit time and ships the decision with the
job (:func:`repro.faults.hooks.decide` / ``perform``) — so ``max_fires``
budgets hold across workers and every firing lands in this one log.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Iterator, Mapping

from repro.faults.plan import FaultPlan, FaultRule
from repro.obs.registry import default_registry
from repro.obs.tracing import span

class InjectedFaultError(RuntimeError):
    """Base class for exceptions raised *by* injection (never by bugs)."""


class InjectedIOError(InjectedFaultError, OSError):
    """An injected I/O failure; flows through ``except OSError`` paths."""


class InjectedCrashError(InjectedFaultError):
    """An injected worker crash (transient from the runner's view)."""


@dataclass(frozen=True, slots=True)
class FaultFiring:
    """One injected fault, as recorded in the firing log."""

    site: str
    kind: str
    rule: int
    #: 1-based matching-occurrence number at the rule when it fired.
    occurrence: int
    key: str = ""
    workload: str = ""
    endpoint: str = ""

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


class _RuleState:
    """Mutable trigger state for one rule (occurrences, fires, RNG)."""

    __slots__ = ("rule", "index", "occurrences", "fires", "rng")

    def __init__(self, rule: FaultRule, index: int, seed: int) -> None:
        self.rule = rule
        self.index = index
        self.occurrences = 0
        self.fires = 0
        self.rng = random.Random(f"{seed}:{index}:{rule.site}:{rule.kind}")


class FaultInjector:
    """Evaluates an armed plan at every hooked site (thread-safe)."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._states = [_RuleState(rule, i, plan.seed)
                        for i, rule in enumerate(plan.rules)]
        self._firings: list[FaultFiring] = []
        self._lock = threading.Lock()

    def decide(self, site: str, ctx: Mapping[str, str],
               kinds: tuple[str, ...] | None = None) -> FaultRule | None:
        """The rule that fires at this occurrence, or ``None``.

        At most one rule fires per hook call (first match in plan
        order), mirroring how a real fault manifests once per operation.
        ``kinds`` restricts consideration to the fault kinds the calling
        hook can actually perform — a site probed by two hooks (e.g.
        ``cache.read``'s exception hook and payload hook) must not let
        one hook consume occurrences destined for the other.
        """
        with self._lock:
            for state in self._states:
                rule = state.rule
                if rule.site != site or not rule.matches(ctx):
                    continue
                if kinds is not None and rule.kind not in kinds:
                    continue
                state.occurrences += 1
                if state.occurrences <= rule.after:
                    continue
                if (state.occurrences - rule.after - 1) % rule.every != 0:
                    continue
                if rule.max_fires is not None \
                        and state.fires >= rule.max_fires:
                    continue
                if rule.probability < 1.0 \
                        and state.rng.random() >= rule.probability:
                    continue
                state.fires += 1
                firing = FaultFiring(
                    site=site, kind=rule.kind, rule=state.index,
                    occurrence=state.occurrences,
                    key=str(ctx.get("key", "")),
                    workload=str(ctx.get("workload", "")),
                    endpoint=str(ctx.get("endpoint", "")))
                self._firings.append(firing)
                self._publish(firing)
                return rule
        return None

    @staticmethod
    def _publish(firing: FaultFiring) -> None:
        """Count and trace one injection through the obs spine."""
        default_registry().counter(
            "repro_faults_injected_total",
            "Injected faults by site:kind.", label="fault"
        ).inc(f"{firing.site}:{firing.kind}")
        with span("faults.inject", site=firing.site, kind=firing.kind,
                  rule=firing.rule, occurrence=firing.occurrence,
                  key=firing.key):
            pass

    def firings(self) -> list[FaultFiring]:
        """Snapshot of the firing log, in injection order."""
        with self._lock:
            return list(self._firings)

    def firing_count(self) -> int:
        with self._lock:
            return len(self._firings)


# -- the process-wide armed injector -----------------------------------

_active: FaultInjector | None = None


def active() -> FaultInjector | None:
    """The armed injector, or ``None`` (the hooks' fast path)."""
    return _active


def install(injector: FaultInjector) -> FaultInjector:
    """Arm an injector process-wide."""
    global _active
    _active = injector
    return injector


def uninstall() -> None:
    """Disarm injection."""
    global _active
    _active = None


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultInjector]:
    """Arm a plan for the duration of a ``with`` block."""
    injector = install(FaultInjector(plan))
    try:
        yield injector
    finally:
        uninstall()
