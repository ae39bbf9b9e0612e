"""The hook functions host layers call at their fault sites.

Each hook is a thin wrapper over :func:`repro.faults.injector.active`:
when no injector is armed (the overwhelmingly common case) every hook
is a ``None``-check and a return, so production paths pay one attribute
load.  When a plan is armed, the hook asks the injector for a decision
and *performs* the fault — raising, sleeping, corrupting a payload, or
reporting a forced condition for the caller to act on.

Callers never import fault kinds; they pick the hook matching what
their site can absorb:

=====================  ================================================
:func:`maybe_raise`    sites whose faults surface as exceptions
                       (``cache.*`` I/O errors, ``executor.job``
                       crashes); also serves ``latency`` by sleeping
                       in-line.  It is :func:`decide` then
                       :func:`perform`, which the pool executor calls
                       separately — parent decides, worker performs
:func:`corrupt_text`   payload-transforming sites (``cache.read`` torn
                       and corrupt entries)
:func:`delay_seconds`  async sites that must ``await`` their own sleep
                       (``serve.read`` slow-loris)
:func:`forced_timeout` timeout arbitration (``executor.timeout``,
                       ``serve.batch_timeout``)
:func:`drop_connection`  the serving socket (``serve.connection``)
=====================  ================================================
"""

from __future__ import annotations

import os
import time

from repro.faults import injector as _inj
from repro.faults.plan import FaultRule
from repro.faults.sites import (
    KIND_ABORT,
    KIND_CORRUPT,
    KIND_CRASH,
    KIND_DROP,
    KIND_FORCE,
    KIND_IO_ERROR,
    KIND_LATENCY,
    KIND_SLOW,
    KIND_TORN,
)

#: Replacement payload for ``corrupt`` cache entries — valid UTF-8 but
#: never valid JSON, so the store's validation must catch it.
_GARBAGE = "\x00repro-injected-corruption\x00"


def decide(site: str, **ctx: str) -> FaultRule | None:
    """The exception-kind rule firing at ``site`` now, if any.

    The decision half of :func:`maybe_raise`, for callers that decide
    in one process and :func:`perform` in another: the pool executor
    decides ``executor.job`` rules in the parent at submit time — where
    the plan's counters and firing log live — and ships the rule with
    the job.
    """
    injector = _inj.active()
    return None if injector is None else injector.decide(site, ctx, kinds=(
        KIND_IO_ERROR, KIND_CRASH, KIND_ABORT, KIND_LATENCY))


def perform(rule: FaultRule | None, site: str, **ctx: str) -> None:
    """Carry out a decided exception-kind fault (no-op on ``None``).

    ``io-error`` raises :class:`~repro.faults.injector.InjectedIOError`
    (an ``OSError``), ``crash`` raises
    :class:`~repro.faults.injector.InjectedCrashError`, ``abort`` kills
    the process outright (pool-worker death), and ``latency`` sleeps the
    rule's ``latency`` in-line before returning.
    """
    if rule is None:
        return
    if rule.kind == KIND_IO_ERROR:
        raise _inj.InjectedIOError(
            f"injected I/O error at {site} ({ctx.get('key', '')})")
    if rule.kind == KIND_CRASH:
        raise _inj.InjectedCrashError(
            f"injected crash at {site} ({ctx.get('key', '')})")
    if rule.kind == KIND_ABORT:
        # A hard worker death: no exception crosses the pool boundary,
        # the executor sees BrokenProcessPool and reports the job
        # failed + transient for the runner's backoff loop to retry.
        os._exit(43)
    if rule.kind == KIND_LATENCY:
        time.sleep(rule.latency)


def maybe_raise(site: str, **ctx: str) -> None:
    """Fire exception-kind faults at ``site`` (no-op when disarmed)."""
    if _inj.active() is not None:  # disarmed: one check, no calls
        perform(decide(site, **ctx), site, **ctx)


def corrupt_text(site: str, text: str, **ctx: str) -> str:
    """Return ``text`` possibly torn or corrupted (identity when disarmed)."""
    injector = _inj.active()
    if injector is None:
        return text
    rule = injector.decide(site, ctx, kinds=(KIND_TORN, KIND_CORRUPT))
    if rule is None:
        return text
    if rule.kind == KIND_TORN:
        return text[:max(1, len(text) // 2)]
    if rule.kind == KIND_CORRUPT:
        return _GARBAGE
    return text


def delay_seconds(site: str, **ctx: str) -> float:
    """Injected stall for async callers to ``await`` (0.0 when disarmed)."""
    injector = _inj.active()
    if injector is None:
        return 0.0
    rule = injector.decide(site, ctx, kinds=(KIND_SLOW,))
    return 0.0 if rule is None else rule.latency


def forced_timeout(site: str, **ctx: str) -> bool:
    """Should the caller report a timeout *now*, without waiting?"""
    injector = _inj.active()
    if injector is None:
        return False
    rule = injector.decide(site, ctx, kinds=(KIND_FORCE,))
    return rule is not None


def drop_connection(site: str, **ctx: str) -> bool:
    """Should the caller drop this connection before responding?"""
    injector = _inj.active()
    if injector is None:
        return False
    rule = injector.decide(site, ctx, kinds=(KIND_DROP,))
    return rule is not None
