"""Open-loop load generation against a running experiment server.

Open-loop means request *start* times are fixed by the target RPS —
request ``i`` fires at ``i / rps`` seconds regardless of whether
earlier requests have completed — so a slow server accumulates
concurrency instead of silently throttling the offered load (the
coordinated-omission trap of closed-loop generators).

Each request runs on its own task and connection via
:class:`~repro.serve.client.AsyncServeClient`.  The report carries
latency percentiles, the hit/computed/coalesced/shed/timeout split as
observed from response bodies and status codes, and the error count —
everything the ``/metrics`` endpoint must reconcile with.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import perf_counter

from repro.errors import ServeError
from repro.serve.client import AsyncServeClient
from repro.serve.config import (
    CLIENT_TIMEOUT,
    LOADGEN_DURATION,
    LOADGEN_ENDPOINT,
    LOADGEN_RPS,
)


@dataclass(slots=True)
class LoadgenReport:
    """Everything one load-generation run observed."""

    target_rps: float
    duration: float
    sent: int = 0
    completed: int = 0
    #: Transport-level failures (connect/read errors), not HTTP errors.
    errors: int = 0
    #: Responses by HTTP status code.
    status_codes: dict[str, int] = field(default_factory=dict)
    #: Served responses by pipeline status (hit/computed/coalesced...).
    outcomes: dict[str, int] = field(default_factory=dict)
    #: Sorted request latencies in seconds (successes and HTTP errors;
    #: transport failures carry no meaningful latency).
    latencies: list[float] = field(default_factory=list)
    elapsed: float = 0.0

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile of observed latency, in seconds."""
        if not self.latencies:
            return 0.0
        rank = min(len(self.latencies) - 1,
                   max(0, round(fraction * (len(self.latencies) - 1))))
        return self.latencies[rank]

    @property
    def hit_rate(self) -> float:
        """Cache hits (including coalesced joins) per completed request."""
        if not self.completed:
            return 0.0
        served_warm = (self.outcomes.get("hit", 0)
                       + self.outcomes.get("coalesced", 0))
        return served_warm / self.completed

    @property
    def shed_rate(self) -> float:
        if not self.completed:
            return 0.0
        return self.status_codes.get("429", 0) / self.completed

    @property
    def error_5xx(self) -> int:
        return sum(count for code, count in self.status_codes.items()
                   if code.startswith("5"))

    @property
    def achieved_rps(self) -> float:
        if self.elapsed <= 0:
            return 0.0
        return self.completed / self.elapsed

    @property
    def hits(self) -> int:
        """Warm-served responses (cache hits plus coalesced joins)."""
        return (self.outcomes.get("hit", 0)
                + self.outcomes.get("coalesced", 0))

    @property
    def shed(self) -> int:
        return self.status_codes.get("429", 0)

    def to_dict(self) -> dict:
        return {
            "target_rps": self.target_rps,
            "duration": self.duration,
            "elapsed": round(self.elapsed, 6),
            "sent": self.sent,
            "completed": self.completed,
            "errors": self.errors,
            "achieved_rps": round(self.achieved_rps, 3),
            "latency_ms": {
                "p50": round(self.percentile(0.50) * 1e3, 3),
                "p95": round(self.percentile(0.95) * 1e3, 3),
                "p99": round(self.percentile(0.99) * 1e3, 3),
            },
            "hits": self.hits,
            "shed": self.shed,
            "error_5xx": self.error_5xx,
            "hit_rate": round(self.hit_rate, 4),
            "shed_rate": round(self.shed_rate, 4),
            "status_codes": dict(sorted(self.status_codes.items())),
            "outcomes": dict(sorted(self.outcomes.items())),
        }

    def format(self) -> str:
        d = self.to_dict()
        lat = d["latency_ms"]
        lines = [
            f"loadgen: {self.completed}/{self.sent} completed "
            f"({self.errors} transport error(s)) in {self.elapsed:.2f}s "
            f"-> {d['achieved_rps']:.1f} rps (target {self.target_rps:g})",
            f"latency ms: p50 {lat['p50']:.3f}  p95 {lat['p95']:.3f}  "
            f"p99 {lat['p99']:.3f}",
            f"hit rate {self.hit_rate:.1%}, shed rate {self.shed_rate:.1%}",
            "outcomes: " + (", ".join(
                f"{name}={count}"
                for name, count in sorted(self.outcomes.items()))
                or "none"),
            "status codes: " + (", ".join(
                f"{code}={count}"
                for code, count in sorted(self.status_codes.items()))
                or "none"),
        ]
        return "\n".join(lines)


async def run_loadgen(host: str, port: int, payload: dict,
                      rps: float = LOADGEN_RPS,
                      duration: float = LOADGEN_DURATION,
                      endpoint: str = LOADGEN_ENDPOINT,
                      timeout: float = CLIENT_TIMEOUT) -> LoadgenReport:
    """Drive ``endpoint`` open-loop at ``rps`` for ``duration`` seconds."""
    if rps <= 0:
        raise ServeError("rps must be positive")
    if duration <= 0:
        raise ServeError("duration must be positive")
    if timeout <= 0:
        raise ServeError("timeout must be positive")
    total = max(1, int(rps * duration))
    client = AsyncServeClient(host, port, timeout=timeout)
    report = LoadgenReport(target_rps=rps, duration=duration, sent=total)
    started = perf_counter()

    async def one(index: int) -> None:
        delay = index / rps - (perf_counter() - started)
        if delay > 0:
            await asyncio.sleep(delay)
        fired = perf_counter()
        try:
            status, body = await client.request("POST", endpoint, payload)
        except ServeError:
            report.errors += 1
            return
        report.completed += 1
        report.latencies.append(perf_counter() - fired)
        code = str(status)
        report.status_codes[code] = report.status_codes.get(code, 0) + 1
        outcome = body.get("status")
        if isinstance(outcome, str):
            report.outcomes[outcome] = report.outcomes.get(outcome, 0) + 1

    await asyncio.gather(*[one(i) for i in range(total)])
    report.elapsed = perf_counter() - started
    report.latencies.sort()
    return report


def run_loadgen_blocking(*args, **kwargs) -> LoadgenReport:
    """:func:`run_loadgen`, same arguments, run to completion."""
    return asyncio.run(run_loadgen(*args, **kwargs))
