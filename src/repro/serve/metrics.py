"""The experiment server's instrument panel over the shared registry.

The instrument classes and the Prometheus text renderer live in
:mod:`repro.obs.registry`; this module keeps :class:`ServeMetrics`, the
concrete panel the server wires into its request path.

``GET /metrics`` is a renderer over two registries: the server's own
panel (each :class:`ServeMetrics` owns a private
:class:`~repro.obs.registry.MetricsRegistry`, so concurrent servers in
one process never collide) followed by the process-global default
registry, where the jobs layer, FDT training, and bench register their
instruments.  The panel's exposition is byte-identical to the
pre-``repro.obs`` endpoint; the default registry only appends.
"""

from __future__ import annotations

import resource

from repro.obs.registry import MetricsRegistry


class ServeMetrics:
    """The experiment server's instrument panel."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.requests = self.registry.counter(
            "repro_serve_requests_total",
            "HTTP requests received, by endpoint.", label="endpoint")
        self.responses = self.registry.counter(
            "repro_serve_responses_total",
            "HTTP responses sent, by status code.", label="code")
        self.hits = self.registry.counter(
            "repro_serve_cache_hits_total",
            "Requests answered read-only from the result cache.")
        self.misses = self.registry.counter(
            "repro_serve_cache_misses_total",
            "Requests that required a simulation submission.")
        self.coalesced = self.registry.counter(
            "repro_serve_coalesced_total",
            "Requests folded into an identical in-flight request.")
        self.shed = self.registry.counter(
            "repro_serve_shed_total",
            "Requests refused by admission control (429).")
        self.timeouts = self.registry.counter(
            "repro_serve_timeouts_total",
            "Requests whose simulation exceeded the request timeout.")
        self.failures = self.registry.counter(
            "repro_serve_failures_total",
            "Requests whose simulation failed.")
        self.in_flight = self.registry.gauge(
            "repro_serve_in_flight",
            "Requests currently being handled.")
        self.latency = self.registry.histogram(
            "repro_serve_request_seconds",
            "Wall-clock request latency in seconds.")
        self.max_resident = self.registry.gauge(
            "repro_process_max_resident_bytes",
            "Peak resident set size of the server process (ru_maxrss).")

    def render(self) -> str:
        """The panel's exposition (without the default registry)."""
        self.max_resident.set(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024)
        return self.registry.render_prometheus()
