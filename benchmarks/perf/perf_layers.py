"""Per-layer metrics read off one traced run (names as in BENCHMARK.json).

Both workload kinds produce the same set, so a metric that has no
meaning on a workload reads 0 there: ``serve-hit`` simulates nothing,
a ``fig14-*`` pass serves no request.
"""

from __future__ import annotations

import perf_stats

#: Layer names of ``layer.<name>.self_ms``; ``harness`` is the
#: benchmark's own root span and is reported as ``unattributed_share``.
LAYERS = ("experiments", "jobs", "workloads", "fdt", "sim", "obs",
          "serve", "client")

_SIM_COUNTS = ("l1.hits", "l1.misses", "l2.hits", "l2.misses", "l3.hits",
               "l3.misses", "coherence.c2c", "coherence.invalidations",
               "coherence.upgrades", "ring.messages", "bus.transfers",
               "bus.busy_cycles", "dram.row_hits", "dram.row_conflicts")
_RUNTIME_COUNTS = ("lock.acquisitions", "lock.contended", "barrier.episodes")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def from_trace(spans: list[dict], sim_rows: list[dict], kernels: list[dict],
               operations: int, overhead_ratio: float) -> dict[str, float]:
    """Metrics of one traced run.

    Args:
        spans: every span, the benchmark's root spans in layer ``harness``.
        sim_rows: counters of each machine the traced operations built.
        kernels: ``kernel_infos`` dicts of the FDT results computed.
        operations: passes or requests traced (``self_ms`` is per one).
        overhead_ratio: traced over untraced ``latency_ms``.
    """
    by_id = {s["id"]: s for s in spans}

    def total(name: str, under: str | None = None) -> float:
        return sum(s["end"] - s["start"] for s in spans
                   if s["name"] == name
                   and (under is None
                        or by_id.get(s["parent"], {}).get("name") == under))

    c = {key: sum(row[key] for row in sim_rows)
         for key in (sim_rows[0] if sim_rows else ())}
    c = {**dict.fromkeys(_SIM_COUNTS + _RUNTIME_COUNTS + (
        "cycles", "retired_instructions", "spin_cycles", "busy_core_cycles",
        "bus.wait_cycles", "dram.accesses"), 0), **c}
    run_s = total("Machine.run_parallel")
    layers = perf_stats.layer_self_times(spans)
    root_seconds = sum(s["end"] - s["start"] for s in spans
                       if s["layer"] == "harness")
    resolves = [s for s in spans if s["name"] == "JobRunner.resolve"]
    out = {
        "trace_overhead_ratio": overhead_ratio,
        "unattributed_share": _ratio(layers.get("harness", 0.0),
                                     root_seconds),
        "sim.run_s": run_s,
        "sim.mips": _ratio(c["retired_instructions"], run_s) / 1e6,
        "sim.kcycles_per_s": _ratio(c["cycles"], run_s) / 1e3,
        "sim.l3.miss_rate": _ratio(c["l3.misses"],
                                   c["l3.hits"] + c["l3.misses"]),
        "sim.bus.utilization": _ratio(c["bus.busy_cycles"], c["cycles"]),
        "sim.bus.mean_wait": _ratio(c["bus.wait_cycles"],
                                    c["bus.transfers"]),
        "sim.dram.row_hit_rate": _ratio(c["dram.row_hits"],
                                        c["dram.accesses"]),
        "runtime.spin_share": _ratio(c["spin_cycles"],
                                     c["busy_core_cycles"]),
        "fdt.train_host_s": total("Machine.run_serial"),
        "fdt.exec_host_s": total("Machine.run_parallel",
                                 under="FdtPolicy.run_kernel"),
        "fdt.train_cycle_share": _ratio(
            sum(k["training_cycles"] for k in kernels),
            sum(k["training_cycles"] + k["execution_cycles"]
                for k in kernels)),
        "fdt.trained_iterations":
            sum(k["trained_iterations"] for k in kernels),
        "fdt.mean_threads": _ratio(sum(k["threads"] for k in kernels),
                                   len(kernels)),
        # Pipeline entry to JobRunner.resolve entry: the admission queue,
        # the batch pick-up and the hop to the executor thread.
        "serve.queue_wait_ms": 1e3 * _ratio(
            sum(s["start"] - by_id[s["parent"]]["start"] for s in resolves
                if s["parent"] in by_id), len(resolves)),
        "serve.batch_size_mean": _ratio(sum(s["note"] for s in resolves),
                                        len(resolves)),
    }
    for key in _SIM_COUNTS:
        out[f"sim.{key}"] = c[key]
    for key in _RUNTIME_COUNTS:
        out[f"runtime.{key}"] = c[key]
    for layer in LAYERS:
        out[f"layer.{layer}.self_ms"] = \
            1e3 * layers.get(layer, 0.0) / operations
    return out


#: Metrics only one workload kind measures; the other reports 0.
FIG14_ONLY = ("fdt.norm_time", "fdt.norm_power")
SERVE_ONLY = ("serve.p50_ms", "serve.p90_ms", "serve.p99_ms", "serve.rps",
              "serve.server_cpu_us_per_req", "serve.client_us")
