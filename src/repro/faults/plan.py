"""Declarative fault plans: what to inject, where, and when.

A :class:`FaultPlan` is a seedable, JSON-loadable description of the
faults one chaos run injects.  Each :class:`FaultRule` names a *site*
(an injection hook compiled into a host layer — see
:mod:`repro.faults.sites`), a fault *kind* the site supports, a trigger
predicate (context match + occurrence schedule + seeded probability),
and a firing budget.  Plans are pure data: loading one has no effect
until it is armed through :class:`~repro.faults.injector.FaultInjector`.

The trigger model, in evaluation order per eligible occurrence:

1. ``match`` — context predicate (``key_prefix``, ``workload``,
   ``endpoint``); a non-matching occurrence is not counted;
2. ``after`` — skip the first N matching occurrences;
3. ``every`` — of the remainder, consider only every Nth;
4. ``probability`` — fire with this probability, drawn from the rule's
   own :class:`random.Random` stream seeded from ``(plan seed, rule
   index)`` so two runs of the same plan draw identical sequences;
5. ``max_fires`` — stop firing after this many injections.

Everything here targets host layers only (cache I/O, executors, the
serving socket); nothing can reach simulator state, so simulated cycle
counts are bit-identical with any plan armed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import FaultError
from repro.faults.sites import SITES

#: Bump on any incompatible change to the plan layout.
PLAN_SCHEMA = "repro-faults/1"

#: Context keys a ``match`` predicate may constrain.
MATCH_KEYS = ("key_prefix", "workload", "endpoint")


@dataclass(frozen=True, slots=True)
class FaultRule:
    """One injection rule: site + kind + trigger + budget."""

    site: str
    kind: str
    #: Chance an eligible occurrence fires (after ``after``/``every``).
    probability: float = 1.0
    #: Skip the first N matching occurrences entirely.
    after: int = 0
    #: Of the occurrences past ``after``, consider every Nth (1 = all).
    every: int = 1
    #: Total injection budget (``None`` = unbounded).
    max_fires: int | None = None
    #: Seconds of injected delay for ``latency``/``hang``/``slow`` kinds.
    latency: float = 0.0
    #: Context predicate; unknown keys are rejected at validation.
    match: dict[str, str] = field(default_factory=dict)

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
        if not 0.0 <= self.probability <= 1.0:
            raise FaultError("probability must be within [0, 1]")
        if self.after < 0:
            raise FaultError("after must be >= 0")
        if self.every < 1:
            raise FaultError("every must be >= 1")
        if self.max_fires is not None and self.max_fires < 0:
            raise FaultError("max_fires must be >= 0")
        if self.latency < 0:
            raise FaultError("latency must be >= 0")
        unknown = set(self.match) - set(MATCH_KEYS)
        if unknown:
            raise FaultError(
                f"unknown match key(s) {sorted(unknown)}; "
                f"allowed: {', '.join(MATCH_KEYS)}")

    def matches(self, ctx: Mapping[str, str]) -> bool:
        """Does a hook context satisfy this rule's predicate?"""
        prefix = self.match.get("key_prefix")
        if prefix is not None \
                and not str(ctx.get("key", "")).startswith(prefix):
            return False
        for name in ("workload", "endpoint"):
            want = self.match.get(name)
            if want is not None and str(ctx.get(name, "")) != want:
                return False
        return True

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"site": self.site, "kind": self.kind}
        if self.probability != 1.0:
            out["probability"] = self.probability
        if self.after:
            out["after"] = self.after
        if self.every != 1:
            out["every"] = self.every
        if self.max_fires is not None:
            out["max_fires"] = self.max_fires
        if self.latency:
            out["latency"] = self.latency
        if self.match:
            out["match"] = dict(self.match)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultRule":
        if not isinstance(data, Mapping):
            raise FaultError(f"fault rule must be an object, got {data!r}")
        unknown = set(data) - {"site", "kind", "probability", "after",
                               "every", "max_fires", "latency", "match"}
        if unknown:
            raise FaultError(f"unknown fault rule field(s) {sorted(unknown)}")
        try:
            return cls(
                site=str(data["site"]), kind=str(data["kind"]),
                probability=float(data.get("probability", 1.0)),
                after=int(data.get("after", 0)),
                every=int(data.get("every", 1)),
                max_fires=(None if data.get("max_fires") is None
                           else int(data["max_fires"])),
                latency=float(data.get("latency", 0.0)),
                match={str(k): str(v)
                       for k, v in dict(data.get("match", {})).items()},
            )
        except KeyError as exc:
            raise FaultError(f"fault rule is missing field {exc.args[0]!r}")
        except (TypeError, ValueError) as exc:
            raise FaultError(f"malformed fault rule: {exc}")


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A seed plus an ordered list of :class:`FaultRule`."""

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()
    #: Free-form description carried through to chaos reports.
    description: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.rules, tuple):
            object.__setattr__(self, "rules", tuple(self.rules))

    def with_seed(self, seed: int) -> "FaultPlan":
        """The same rules under a different seed (soak runs)."""
        return FaultPlan(seed=seed, rules=self.rules,
                         description=self.description)

    def sites(self) -> list[str]:
        """The distinct sites this plan can reach, in rule order."""
        seen: list[str] = []
        for rule in self.rules:
            if rule.site not in seen:
                seen.append(rule.site)
        return seen

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "schema": PLAN_SCHEMA,
            "seed": self.seed,
            "faults": [rule.to_dict() for rule in self.rules],
        }
        if self.description:
            out["description"] = self.description
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(data, Mapping):
            raise FaultError("fault plan must be a JSON object")
        schema = data.get("schema", PLAN_SCHEMA)
        if schema != PLAN_SCHEMA:
            raise FaultError(f"unsupported fault plan schema {schema!r}; "
                             f"this build reads {PLAN_SCHEMA!r}")
        faults = data.get("faults", [])
        if not isinstance(faults, Sequence) or isinstance(faults, (str, bytes)):
            raise FaultError("'faults' must be a list of rules")
        try:
            seed = int(data.get("seed", 0))
        except (TypeError, ValueError):
            raise FaultError(f"bad plan seed {data.get('seed')!r}")
        return cls(seed=seed,
                   rules=tuple(FaultRule.from_dict(r) for r in faults),
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
