"""Layer probes: one small timing per layer entry point.

Each probe calls a public function of one layer in a loop and reports
the best batch, so the whole set costs a few seconds and fits inside a
traced run.  They do not depend on the workload: every traced run
reports all of them, and the workload-derived numbers beside them say
how often the workload crosses each boundary.
"""

from __future__ import annotations

import asyncio
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable

import perf_env
from perf_trace import Recorder

from repro.bench.scenarios import select
from repro.faults import hooks as fault_hooks
from repro.fdt.estimators import estimate
from repro.fdt.policies import FdtPolicy
from repro.fdt.training import TrainingConfig, TrainingLog, TrainingSample
from repro.isa.ops import ReadCounter
from repro.jobs import (
    JobRunner,
    JobSpec,
    PolicySpec,
    ResultCache,
    WorkloadRef,
    app_result_from_dict,
    app_result_to_dict,
    execute_jobs,
)
from repro.obs.registry import default_registry
from repro.obs.runreg import RunRecord, RunRegistry
from repro.obs.tracing import span
from repro.serve import ServeClient, ServeConfig, ServeMetrics, ServerThread
from repro.serve.http import json_body, read_request, response_bytes
from repro.serve.loadgen import run_loadgen
from repro.serve.pipeline import RequestPipeline
from repro.serve.schema import parse_run_request
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine

#: Seconds each looped probe may spend.
BUDGET = 0.08


def per_call(fn: Callable[[], object], budget: float = BUDGET) -> float:
    """Best seconds per call of ``fn`` over batches filling ``budget``."""
    calls = 1
    while True:  # grow the batch until it is long enough to time
        started = perf_counter()
        for _ in range(calls):
            fn()
        elapsed = perf_counter() - started
        if elapsed >= budget / 8 or calls >= 1 << 20:
            break
        calls *= 4
    best = elapsed / calls
    deadline = perf_counter() + budget
    while perf_counter() < deadline:
        started = perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (perf_counter() - started) / calls)
    return best


def _once(fn: Callable[[], object]) -> float:
    started = perf_counter()
    fn()
    return perf_counter() - started


def _synthetic(index: int, policy: PolicySpec | None = None) -> JobSpec:
    """A ``serve-miss``-sized job that no other probe has asked for."""
    return JobSpec(
        workload=WorkloadRef.synthetic(cs_fraction=0.1, bus_lines=2,
                                       iterations=64,
                                       compute_instr=7000 + index),
        policy=policy or PolicySpec.fdt(),
        config=MachineConfig.asplos08_baseline())


# -- repro.workloads -----------------------------------------------------------


def _drain(program) -> int:
    """Run a thread program to exhaustion with nothing consuming it."""
    ops = 0
    reply = None
    try:
        while True:
            op = program.send(reply)
            ops += 1
            reply = 0 if type(op) is ReadCounter else None
    except StopIteration:
        return ops


def workloads(out: dict[str, float]) -> None:
    refs = [WorkloadRef(name=name, scale=0.05)
            for name in ("ED", "PageMine", "BT")]
    out["workloads.build_ms"] = 1e3 * sum(
        min(_once(ref.build) for _ in range(2)) for ref in refs) / len(refs)
    drain_s = sim_s = 0.0
    ops = 0
    for ref in refs:
        kernel = ref.build().kernels[0]
        iterations = range(kernel.total_iterations)
        started = perf_counter()
        for tid, factory in enumerate(kernel.factories(iterations, 32)):
            ops += _drain(factory(tid, 32))
        drain_s += perf_counter() - started
        machine = Machine(MachineConfig.asplos08_baseline())
        started = perf_counter()
        machine.run_parallel(kernel.factories(iterations, 32))
        sim_s += perf_counter() - started
    out["workloads.gen_mops_per_s"] = ops / drain_s / 1e6
    out["workloads.gen_share"] = drain_s / sim_s


# -- repro.sim and repro.runtime -------------------------------------------------


def _scenario_rate(name: str, trials: int = 3) -> tuple[float, float]:
    """``(sim cycles, sim ops)`` per host second of a ``repro bench``
    scenario at its quick size, best of ``trials``."""
    scenario, = select([name])
    best = None
    for _ in range(trials):
        body = scenario.prepare(True)
        started = perf_counter()
        stats = body()
        elapsed = perf_counter() - started
        if best is None or elapsed < best[0]:
            best = (elapsed, stats)
    elapsed, stats = best
    return stats.sim_cycles / elapsed, stats.sim_ops / elapsed


def _memsys_outcomes(out: dict[str, float]) -> None:
    """Host ns per access, one address stream per outcome.

    Each stream is staged untimed, then ``count`` accesses are timed
    through the port the core model uses, and the counters are checked
    to show that every access ended where it was meant to.
    """
    machine = Machine(MachineConfig.asplos08_baseline())
    mem = machine.memsys
    port0, port1 = mem.make_port(0), mem.make_port(1)
    line = machine.config.line_bytes
    clock = [0]

    def touch(port, addrs, write=False) -> float:
        now = clock[0]
        started = perf_counter()
        for addr in addrs:
            now = port(addr, write, now)
        elapsed = perf_counter() - started
        clock[0] = now
        return elapsed / len(addrs)

    def stream(base_mb: int, lines: int) -> list[int]:
        return [(base_mb << 20) + k * line for k in range(lines)]

    def timed(label: str, port, addrs, counter, write=False,
              rounds: int = 3) -> None:
        before = counter()
        best = min(touch(port, addrs, write) for _ in range(rounds))
        got = counter() - before
        if got != rounds * len(addrs):
            raise RuntimeError(f"{label}: {got} of {rounds * len(addrs)} "
                               "accesses ended there")
        out[f"sim.memsys.{label}_ns"] = best * 1e9

    l1, l2 = mem.l1s[0].stats, mem.l2s[0].stats
    # L1 hit: a working set of 32 lines, resident after one pass.
    hot = stream(64, 32) * 64
    touch(port0, hot[:32])
    timed("l1_hit", port0, hot, lambda: l1.hits)
    # L2 hit: 512 lines walked in order overflow the 128-line L1 and fit
    # the 1024-line L2.
    warm = stream(65, 512)
    touch(port0, warm)
    timed("l2_hit", port0, warm * 4, lambda: l2.hits)
    # L3 hit: 8192 lines overflow the L2 and fit the L3.
    big = stream(66, 8192)
    touch(port0, big)
    timed("l3_hit", port0, big, lambda: mem.l3.hits, rounds=2)
    # DRAM: never-touched lines, one round (a second would hit the L3).
    timed("dram", port0, stream(128, 8192), lambda: mem.l3.misses, rounds=1)
    # Upgrade: both cores read a line, then core 0 writes it.
    shared = stream(256, 512)
    touch(port0, shared)
    touch(port1, shared)
    timed("upgrade", port0, shared, lambda: mem.directory.stats.upgrades,
          write=True, rounds=1)
    # Cache-to-cache: core 0 holds the lines modified, core 1 reads them.
    timed("c2c", port1, shared,
          lambda: mem.directory.stats.cache_to_cache, rounds=1)


def sim(out: dict[str, float]) -> None:
    config = MachineConfig.asplos08_baseline()
    out["sim.machine_build_ms"] = 1e3 * per_call(lambda: Machine(config))
    cycles, _ = _scenario_rate("compute-bound")
    out["sim.engine.probe_mcycles_per_s"] = cycles / 1e6
    _, loads = _scenario_rate("miss-bound")
    out["sim.memsys.probe_kloads_per_s"] = loads / 1e3
    _, ops = _scenario_rate("cs-heavy")
    # The scenario counts 88 instructions per critical section.
    out["runtime.probe_ksections_per_s"] = ops / 88 / 1e3
    _memsys_outcomes(out)


# -- repro.fdt -----------------------------------------------------------------


def fdt(out: dict[str, float]) -> None:
    log = TrainingLog(config=TrainingConfig(), total_iterations=4096,
                      num_cores=32)
    for i in range(5):
        log.record(TrainingSample(iteration=i, total_cycles=21_000 + i,
                                  cs_cycles=2_400, bus_busy_cycles=1_900))
    policy = FdtPolicy()
    out["fdt.decide_us"] = 1e6 * per_call(
        lambda: policy.decide(estimate(log, 32)))


# -- repro.jobs ----------------------------------------------------------------


def jobs(out: dict[str, float], tmp: Path) -> None:
    spec = _synthetic(0)
    key = spec.key()
    result = app_result_to_dict(spec.run())
    cache = ResultCache(tmp / "probe-cache")
    cache.put(key, spec.to_dict(), result)
    absent = _synthetic(1).key()
    app = app_result_from_dict(result)
    out["jobs.key_us"] = 1e6 * per_call(spec.key)
    out["jobs.cache_get_us"] = 1e6 * per_call(lambda: cache.get(key))
    out["jobs.cache_miss_us"] = 1e6 * per_call(lambda: cache.get(absent))
    out["jobs.cache_put_us"] = 1e6 * per_call(
        lambda: cache.put(key, spec.to_dict(), result))
    out["jobs.encode_us"] = 1e6 * per_call(lambda: app_result_to_dict(app))
    out["jobs.decode_us"] = 1e6 * per_call(
        lambda: app_result_from_dict(result))
    runner = JobRunner(cache=cache)
    out["jobs.resolve_hit_us"] = 1e6 * per_call(
        lambda: runner.resolve([spec]))

    # Cold resolve minus the JobSpec.run inside it, best of five specs.
    recorder = Recorder()
    recorder.wrap(JobSpec, "run", "JobSpec.run", "jobs")
    try:
        overheads = []
        for i in range(5):
            cold = JobRunner(cache=ResultCache(tmp / f"probe-cold{i}"))
            started = perf_counter()
            cold.resolve([_synthetic(10 + i)])
            elapsed = perf_counter() - started
            inner = recorder.spans()[-1]
            overheads.append(elapsed - (inner["end"] - inner["start"]))
    finally:
        recorder.uninstall()
    out["jobs.resolve_overhead_ms"] = 1e3 * min(overheads)

    # A two-worker pool against the serial backend on eight tiny specs.
    # Both sides share this process's one CPU, so the difference is the
    # pool's own cost: forking workers, pickling specs and results.
    tiny = [_synthetic(20 + i, PolicySpec.static(4)) for i in range(8)]
    serial = min(_once(lambda: execute_jobs(tiny, jobs=1)) for _ in range(2))
    outcomes = []
    pooled = _once(lambda: outcomes.extend(execute_jobs(tiny, jobs=2)))
    if not all(o.ok and o.backend == "pool" for o in outcomes):
        raise RuntimeError("pool probe did not run on the pool")
    out["jobs.pool_dispatch_ms"] = 1e3 * (pooled - serial) / len(tiny)


# -- repro.serve ---------------------------------------------------------------


def serve(out: dict[str, float], tmp: Path) -> None:
    body = {"synthetic": {"cs_fraction": 0.1, "bus_lines": 2,
                          "iterations": 64, "compute_instr": 7100},
            "policy": "fdt"}
    out["serve.schema_us"] = 1e6 * per_call(lambda: parse_run_request(body))

    with ServerThread(ServeConfig(port=0, queue_depth=4,
                                  cache_dir=str(tmp / "probe-serve"))
                      ) as handle:
        with ServeClient(port=handle.port) as client:
            payload = client.run(**body)
        raw = json_body(body)
        request = (f"POST /v1/run HTTP/1.1\r\nHost: 127.0.0.1:{handle.port}"
                   f"\r\nAccept-Encoding: identity\r\nContent-Length: "
                   f"{len(raw)}\r\nContent-Type: application/json\r\n\r\n"
                   ).encode("latin-1") + raw
        # A 32-request burst of one never-seen spec against a queue of 4.
        burst = dict(body, synthetic=dict(body["synthetic"],
                                          compute_instr=7101))
        report = asyncio.run(run_loadgen(
            "127.0.0.1", handle.port, burst, rps=3200.0, duration=0.01))
    if report.errors or report.completed != 32:
        raise RuntimeError(f"burst probe lost requests: {report.to_dict()}")
    out["serve.coalesced_ratio"] = \
        report.outcomes.get("coalesced", 0) / report.completed
    out["serve.shed_ratio"] = report.shed / report.completed

    out["serve.encode_us"] = 1e6 * per_call(
        lambda: response_bytes(200, json_body(payload)))

    spec = parse_run_request(body)
    pipeline = RequestPipeline(ServeConfig(), ServeMetrics(),
                               ResultCache(tmp / "probe-serve"))

    async def loops() -> tuple[float, float]:
        async def parse() -> None:
            reader = asyncio.StreamReader()
            reader.feed_data(request)
            await read_request(reader)

        async def hit() -> None:
            resolution = await pipeline.resolve(spec)
            if resolution.status != "hit":
                raise RuntimeError(f"pipeline probe: {resolution.status}")

        async def best(step: Callable, calls: int = 200) -> float:
            times = []
            for _ in range(5):
                started = perf_counter()
                for _ in range(calls):
                    await step()
                times.append((perf_counter() - started) / calls)
            return min(times)

        return await best(parse), await best(hit)

    parse_s, hit_s = asyncio.run(loops())
    out["serve.http_parse_us"] = 1e6 * parse_s
    out["serve.pipeline_hit_us"] = 1e6 * hit_s


# -- repro.obs, repro.faults, repro.cli --------------------------------------------


def _open_close_span() -> None:
    with span("probe"):
        pass


def _disarmed_hooks() -> None:
    fault_hooks.delay_seconds("serve.read")
    fault_hooks.drop_connection("serve.connection")


def host_boundaries(out: dict[str, float], tmp: Path) -> None:
    out["obs.span_us"] = 1e6 * per_call(_open_close_span)
    registry = RunRegistry(tmp / "probe-runreg")
    record = RunRecord(key="0" * 64, workload="synthetic", policy="fdt",
                       status="hit", backend="cache", wall_time=0.0,
                       started_at="", finished_at="", schema_version=2)
    out["obs.runreg_append_us"] = 1e6 * per_call(
        lambda: registry.append(record))
    out["obs.metrics_render_ms"] = 1e3 * per_call(
        default_registry().render_prometheus)
    out["faults.hook_disarmed_ns"] = 1e9 * per_call(_disarmed_hooks) / 2

    def startup() -> None:
        subprocess.run([sys.executable, "-m", "repro", "machine"],
                       check=True, stdout=subprocess.DEVNULL)

    out["cli.startup_ms"] = 1e3 * min(_once(startup) for _ in range(3))


def run_all() -> dict[str, float]:
    """Every probe, by metric name."""
    out: dict[str, float] = {}
    with perf_env.fresh_dir("probes") as tmp:
        workloads(out)
        sim(out)
        fdt(out)
        jobs(out, tmp)
        serve(out, tmp)
        host_boundaries(out, tmp)
    return out
