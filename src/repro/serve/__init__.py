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
"""

from repro.serve.client import AsyncServeClient, ServeClient
from repro.serve.config import ServeConfig
from repro.serve.loadgen import LoadgenReport, run_loadgen, run_loadgen_blocking
from repro.serve.metrics import ServeMetrics
from repro.serve.pipeline import RequestPipeline
from repro.serve.server import ExperimentServer, run_server
from repro.serve.thread import ServerThread

__all__ = [
    "AsyncServeClient",
    "ExperimentServer",
    "LoadgenReport",
    "RequestPipeline",
    "ServeClient",
    "ServeConfig",
    "ServeMetrics",
    "ServerThread",
    "run_loadgen",
    "run_loadgen_blocking",
    "run_server",
]
