"""Async experiment serving: the FDT decision services as a long-lived
network front end.

The paper's SAT/BAT controllers answer configuration queries — "how
many threads should this workload run with on this machine?" — and
this package serves those answers (plus full simulations and sweeps)
over HTTP with the shapes any inference-serving stack needs: a
content-addressed cache fast path, single-flight request coalescing,
bounded-queue admission control with load shedding, batched dispatch
over the :mod:`repro.jobs` backend, graceful drain, and live
Prometheus metrics.

Typical use::

    from repro.serve import ServeConfig, ServerThread, ServeClient

    with ServerThread(ServeConfig(port=0)) as handle:
        client = ServeClient(port=handle.port)
        decision = client.fdt("PageMine", scale=0.5)
        best = decision["chosen_threads"][0]
        run = client.run("PageMine", scale=0.5,
                         policy="static", threads=best)

Or from the command line: ``repro serve`` / ``repro loadgen``.
Names resolve on first use (PEP 562), so importing the package, or
its ``config`` module, loads neither the server nor the clients.
"""

from repro import _exports

_EXPORTS = {
    "AsyncServeClient": "client",
    "ExperimentServer": "server",
    "LoadgenReport": "loadgen",
    "RequestPipeline": "pipeline",
    "ServeClient": "client",
    "ServeConfig": "config",
    "ServeMetrics": "metrics",
    "ServerThread": "thread",
    "run_loadgen": "loadgen",
    "run_loadgen_blocking": "loadgen",
    "run_server": "server",
}

__all__ = sorted(_EXPORTS)

__getattr__ = _exports(__name__, _EXPORTS)
