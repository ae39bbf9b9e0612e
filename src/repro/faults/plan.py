"""Declarative fault plans: what to inject, where, and how often.

A :class:`FaultPlan` is a JSON-loadable description of the faults one
chaos run injects.  Each :class:`FaultRule` names a *site* (an
injection hook compiled into a host layer — see
:mod:`repro.faults.sites`), a fault *kind* the site supports, and a
firing budget: the rule fires at every occurrence of its site and kind
until ``max_fires`` injections have landed.  The same plan therefore
fires the same faults at the same occurrences.  Plans are pure data:
loading one has no effect until it is armed through
:class:`~repro.faults.injector.FaultInjector`.

Everything here targets host layers only (cache I/O, executors, the
serving socket); nothing can reach simulator state, so simulated cycle
counts are bit-identical with any plan armed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import FaultError
from repro.faults.sites import SITES, SLEEP_KINDS

#: Bump on any incompatible change to the plan layout.
PLAN_SCHEMA = "repro-faults/1"


def _refuse_unknown(data: Mapping[str, Any], known: tuple[str, ...],
                    what: str) -> None:
    unknown = set(data) - set(known)
    if unknown:
        raise FaultError(f"unknown {what} field(s) {sorted(unknown)}; "
                         f"allowed: {', '.join(known)}")


@dataclass(frozen=True, slots=True)
class FaultRule:
    """One injection rule: site + kind + budget."""

    site: str
    kind: str
    #: Total injection budget (``None`` = unbounded).
    max_fires: int | None = None
    #: Seconds each firing sleeps; positive for the ``latency`` and
    #: ``slow`` kinds, absent for every other kind.
    latency: float = 0.0

    def __post_init__(self) -> None:
        site = SITES.get(self.site)
        if site is None:
            raise FaultError(
                f"unknown fault site {self.site!r}; known sites: "
                + ", ".join(sorted(SITES)))
        if self.kind not in site.kinds:
            raise FaultError(
                f"site {self.site!r} does not support kind {self.kind!r}; "
                f"supported: {', '.join(site.kinds)}")
        if self.max_fires is not None and self.max_fires < 0:
            raise FaultError("max_fires must be >= 0")
        if self.kind in SLEEP_KINDS:
            if not self.latency > 0:
                raise FaultError(f"kind {self.kind!r} sleeps: latency must "
                                 f"be > 0, got {self.latency}")
        elif self.latency:
            raise FaultError(f"kind {self.kind!r} does not sleep: latency "
                             f"applies only to {', '.join(SLEEP_KINDS)}")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"site": self.site, "kind": self.kind}
        if self.max_fires is not None:
            out["max_fires"] = self.max_fires
        if self.latency:
            out["latency"] = self.latency
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultRule":
        if not isinstance(data, Mapping):
            raise FaultError(f"fault rule must be an object, got {data!r}")
        _refuse_unknown(data, ("site", "kind", "max_fires", "latency"),
                        "fault rule")
        try:
            return cls(
                site=str(data["site"]), kind=str(data["kind"]),
                max_fires=(None if data.get("max_fires") is None
                           else int(data["max_fires"])),
                latency=float(data.get("latency", 0.0)),
            )
        except KeyError as exc:
            raise FaultError(f"fault rule is missing field {exc.args[0]!r}")
        except (TypeError, ValueError) as exc:
            raise FaultError(f"malformed fault rule: {exc}")


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """An ordered list of :class:`FaultRule`."""

    rules: tuple[FaultRule, ...] = ()
    #: Free-form description carried through to chaos reports.
    description: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.rules, tuple):
            object.__setattr__(self, "rules", tuple(self.rules))

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "schema": PLAN_SCHEMA,
            "faults": [rule.to_dict() for rule in self.rules],
        }
        if self.description:
            out["description"] = self.description
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(data, Mapping):
            raise FaultError("fault plan must be a JSON object")
        _refuse_unknown(data, ("schema", "description", "faults"),
                        "fault plan")
        schema = data.get("schema", PLAN_SCHEMA)
        if schema != PLAN_SCHEMA:
            raise FaultError(f"unsupported fault plan schema {schema!r}; "
                             f"this build reads {PLAN_SCHEMA!r}")
        faults = data.get("faults", [])
        if not isinstance(faults, Sequence) or isinstance(faults, (str, bytes)):
            raise FaultError("'faults' must be a list of rules")
        return cls(rules=tuple(FaultRule.from_dict(r) for r in faults),
                   description=str(data.get("description", "")))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise FaultError(f"fault plan is not valid JSON: {exc}")
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise FaultError(f"cannot read fault plan {path}: {exc}")
        return cls.from_json(text)
