#!/usr/bin/env python3
"""Serving quickstart: ask the experiment server for an FDT decision.

Starts an in-process experiment server (the same ``repro serve`` stack,
on a background thread and an ephemeral port), asks ``POST /v1/fdt``
how many threads PageMine should run with on the simulated CMP, then
runs exactly that configuration via ``POST /v1/run`` — the serving
analogue of training once and executing with the chosen thread count.
A repeat of the same request is answered from the content-addressed
cache without re-simulating, which the ``/metrics`` counters prove.

Run:  python examples/serve_client.py
"""

from repro.serve import ServeClient, ServeConfig, ServerThread

SCALE = 0.1  # small input set so the example runs in a blink


def post(client: ServeClient, path: str, **fields) -> dict:
    """POST ``fields`` as JSON to ``path``; the decoded 200 reply."""
    status, reply = client.request("POST", path, fields)
    if status != 200:
        raise SystemExit(f"{path} answered {status}: {reply}")
    return reply


def main() -> None:
    with ServerThread(ServeConfig(port=0)) as handle:
        client = ServeClient(port=handle.port)
        print(f"server: listening on 127.0.0.1:{handle.port} "
              f"(health {client.healthz()['status']})\n")

        decision = post(client, "/v1/fdt", workload="PageMine", scale=SCALE,
                        policy="fdt")
        best = decision["chosen_threads"][0]
        kernel = decision["kernels"][0]
        print(f"FDT decision for {decision['workload']}: "
              f"{best} threads "
              f"(trained {kernel['trained_iterations']} iterations, "
              f"{kernel['training_cycles']:,} training cycles)")

        run = post(client, "/v1/run", workload="PageMine", scale=SCALE,
                   policy="static", threads=best)
        print(f"run at the chosen count: {run['cycles']:,} cycles, "
              f"power {run['power']:.1f} cores [{run['status']}]")

        again = post(client, "/v1/run", workload="PageMine", scale=SCALE,
                     policy="static", threads=best)
        print(f"same request again:      {again['cycles']:,} cycles "
              f"[{again['status']} — served from cache, no simulation]")

        # /metrics is Prometheus text, not JSON: it comes back as "raw".
        metrics = client.request("GET", "/metrics")[1]["raw"]
        hits = [line for line in metrics.splitlines()
                if line.startswith("repro_serve_cache_hits_total")]
        print(f"\nserver counters: {hits[0]}")
        client.close()


if __name__ == "__main__":
    main()
