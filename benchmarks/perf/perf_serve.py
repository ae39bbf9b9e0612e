"""The two serving workloads: ``serve-hit`` (warm) and ``serve-miss`` (cold).

One closed-loop client on one keep-alive connection: the callers of this
server are scripts that wait for the reply before asking again.  The
server is ``python -m repro serve`` in a child process and receives only
the request bodies generated from ``--seed``.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Iterator

import perf_env
import perf_layers
import perf_stats
from perf_calib import SpeedSampler

from repro.errors import ServeClientError
from repro.jobs import JobSpec
from repro.serve import ServeClient
from repro.serve.schema import parse_run_request

TABLE2 = ("PageMine", "ISort", "GSearch", "EP", "ED", "convert",
          "Transpose", "MTwister", "BT", "MG", "BScholes", "SConv")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: ``serve-hit``: distinct cached specs, and untimed requests before the
#: timed region (latency was level within the first few hundred in probing).
HIT_SPECS = 64
HIT_WARMUP = 1000
#: Requests per ``serve-hit`` latency segment: the 90th percentile of a
#: 100-sample segment still has ten samples beyond it.
HIT_SEGMENT = 100
#: ``serve-miss``: untimed never-seen requests before the timed region.
MISS_WARMUP = 2 * 16
#: ``serve-miss`` requests come in cycles of 16 — four ``bus_lines``
#: values with four critical-section levels — so every cycle costs the
#: same whatever the seed, and a latency segment is one cycle (about
#: 0.3 s).  The seed shuffles each cycle and nudges ``cs_fraction``.
MISS_BUS_LINES = (0, 2, 5, 7)
MISS_CS_LEVELS = (0.0, 0.1, 0.2, 0.3)
MISS_CYCLE = len(MISS_BUS_LINES) * len(MISS_CS_LEVELS)
#: Share of timed ``serve-miss`` responses re-run locally afterwards.
MISS_RECHECK = 0.05
#: Requests of the traced run (and of its untraced reference).
TRACED_REQUESTS = {"serve-hit": 2000, "serve-miss": 12 * MISS_CYCLE}


# -- request bodies -----------------------------------------------------------


def hit_bodies(seed: int) -> list[dict]:
    """The 64 distinct specs ``serve-hit`` fills the cache with.

    Every seed gets the same mix of ``bus_lines`` and policies — they
    set what the cold fill costs, which ``setup_s`` reports — in a
    shuffled order with its own ``cs_fraction`` draws.
    """
    rng = random.Random(seed)
    synthetic = HIT_SPECS - len(TABLE2)
    mix = [(i % 8, ("fdt", "static")[i // 8 % 2]) for i in range(synthetic)]
    rng.shuffle(mix)
    bodies = [{"synthetic": {"cs_fraction": round(rng.uniform(0.0, 0.3), 4),
                             "bus_lines": lines,
                             "iterations": 64,
                             "compute_instr": 5000 + i},
               "policy": policy}
              for i, (lines, policy) in enumerate(mix)]
    for i, name in enumerate(TABLE2):
        bodies.append({"workload": name, "scale": 0.05,
                       "policy": ("fdt", "static")[i % 2]})
    return bodies


def miss_bodies(seed: int) -> Iterator[dict]:
    """An endless stream of never-repeating ``synthetic`` specs."""
    rng = random.Random(seed)
    index = 0
    while True:
        cycle = [(lines, level) for lines in MISS_BUS_LINES
                 for level in MISS_CS_LEVELS]
        rng.shuffle(cycle)
        for lines, level in cycle:
            yield {
                "synthetic": {
                    "cs_fraction": round(level + rng.uniform(0, 1e-3), 6),
                    "bus_lines": lines,
                    "iterations": 64,
                    "compute_instr": 5000 + index},
                "policy": "fdt"}
            index += 1


# -- the server process -------------------------------------------------------


class Server:
    """``repro serve`` in a child process on an ephemeral port."""

    def __init__(self, cache_dir: Path, spans_out: Path | None = None) -> None:
        self._log_path = cache_dir.parent / f"{cache_dir.name}.stderr"
        if spans_out is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:  # the traced launcher: same server, wrappers installed
            command = [sys.executable,
                       str(perf_env.HERE / "serve_launcher.py"),
                       "--spans-out", str(spans_out)]
        command += ["--port", "0", "--cache-dir", str(cache_dir)]
        self._log = open(self._log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(command, stderr=self._log,
                                        stdout=subprocess.DEVNULL)
        self.port = self._await_port()
        self.client = ServeClient(port=self.port)
        #: Requests posted so far: the server numbers its operations alike.
        self.requests_sent = 0

    def _await_port(self, timeout: float = 30.0) -> int:
        deadline = perf_counter() + timeout
        while perf_counter() < deadline:
            text = self._log_path.read_text(encoding="utf-8")
            if "listening on" in text and text.endswith("\n"):
                line = next(ln for ln in text.splitlines()
                            if "listening on" in ln)
                return int(line.rsplit(":", 1)[1])
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self.stop(check=False)
        raise RuntimeError(f"server did not start: {text!r}")

    def post(self, body: dict) -> tuple[int, dict]:
        self.requests_sent += 1
        return self.client.request("POST", "/v1/run", body)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        line = next(ln for ln in status.splitlines()
                    if ln.startswith("VmHWM:"))
        return int(line.split()[1]) / 1024

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.process.pid}/stat").read_text()
        # Fields 14 and 15 (utime, stime) counted after the ")" that
        # closes the command name.
        utime, stime = fields.rsplit(")", 1)[1].split()[11:13]
        return (int(utime) + int(stime)) / os.sysconf("SC_CLK_TCK")

    def stop(self, check: bool = True) -> None:
        """SIGTERM, wait for the drain, and check the drain line."""
        if hasattr(self, "client"):
            self.client.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        self._log.close()
        text = self._log_path.read_text(encoding="utf-8")
        self._log_path.unlink()
        if check and (code != 0 or "repro serve: drained" not in text):
            raise RuntimeError(
                f"server exit {code} without a clean drain: {text[-500:]!r}")


# -- the closed loop ------------------------------------------------------------


class Loop:
    """Sends requests one at a time and checks every reply."""

    def __init__(self, server: Server) -> None:
        self.server = server
        self.attempted = 0
        self.failed = 0
        #: ``(start, end)`` of each request since the last ``reset``.
        self.intervals: list[tuple[float, float]] = []
        #: ``(spec, payload)`` of each good reply since the last ``reset``.
        self.replies: list[tuple[JobSpec, dict]] = []

    @property
    def latencies(self) -> list[float]:
        return [end - start for start, end in self.intervals]

    def send(self, body: dict, spec: JobSpec, key: str, expect_status: str,
             expect_result: dict | None = None) -> dict | None:
        """One request; a failure is counted, printed and returns None."""
        self.attempted += 1
        started = perf_counter()
        try:
            status, payload = self.server.post(body)
        except ServeClientError as exc:
            self.failed += 1
            print(f"transport error: {exc}")
            return None
        self.intervals.append((started, perf_counter()))
        if (status != 200 or payload.get("key") != key
                or payload.get("status") != expect_status
                or (expect_result is not None
                    and payload.get("result") != expect_result)):
            self.failed += 1
            print(f"bad reply: HTTP {status} status "
                  f"{payload.get('status')!r} key {payload.get('key')!r}")
            return None
        self.replies.append((spec, payload))
        return payload

    def reset(self) -> None:
        """Forget timings and replies (not the failure count)."""
        self.intervals.clear()
        self.replies.clear()

    def recheck(self, seed: int) -> None:
        """Re-run a seeded sample of the computed replies in this process.

        A reply fails when the local ``JobSpec.run()`` disagrees on
        ``cycles`` or ``threads``.
        """
        rng = random.Random(seed)
        count = max(1, round(MISS_RECHECK * len(self.replies)))
        for spec, payload in rng.sample(self.replies, count):
            self.attempted += 1
            local = spec.run()
            if (payload.get("cycles") != local.cycles
                    or payload.get("threads") != list(local.threads_used)):
                self.failed += 1
                print(f"re-check mismatch: {spec.label}")


class Session:
    """One server, one closed loop, and one workload's request source.

    A context manager: leaving it stops the server and, unless an
    exception is passing through, checks that it drained cleanly.
    """

    def __init__(self, name: str, seed: int, cache_dir: Path,
                 spans_out: Path | None = None) -> None:
        self.name = name
        self.hit = name == "serve-hit"
        #: Requests per latency segment.
        self.segment = HIT_SEGMENT if self.hit else MISS_CYCLE
        self.server = Server(cache_dir, spans_out)
        self.loop = Loop(self.server)
        if self.hit:
            self._rng = random.Random(seed + 1)
            bodies = hit_bodies(seed)
            specs = [parse_run_request(body) for body in bodies]
            self._pool = [(body, spec, spec.key())
                          for body, spec in zip(bodies, specs)]
            #: key -> the result returned when the cache was filled.
            self.filled: dict[str, dict] = {}
        else:
            self._stream = miss_bodies(seed)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type: object, *_: object) -> None:
        self.server.stop(check=exc_type is None)

    def fill(self) -> None:
        """The cold work before any timing: fill the cache (``serve-hit``)
        or send the first never-seen requests (``serve-miss``)."""
        if not self.hit:
            self.request(count=MISS_WARMUP)
            return
        for body, spec, key in self._pool:
            payload = self.loop.send(body, spec, key, "computed")
            if payload is not None:
                self.filled[key] = payload["result"]

    def warm_up(self) -> None:
        if self.hit:
            self.request(count=HIT_WARMUP)
        self.loop.reset()

    def request(self, count: int | None = None,
                seconds: float | None = None) -> None:
        """Send ``count`` requests, or whole segments for ``seconds``."""
        deadline = None if seconds is None else perf_counter() + seconds
        sent = 0
        while count is None or sent < count:
            if (deadline is not None and sent % self.segment == 0
                    and perf_counter() >= deadline):
                break
            if self.hit:
                body, spec, key = self._pool[
                    self._rng.randrange(len(self._pool))]
                self.loop.send(body, spec, key, "hit", self.filled.get(key))
            else:
                body = next(self._stream)
                spec = parse_run_request(body)
                self.loop.send(body, spec, spec.key(), "computed")
            sent += 1


def run(name: str, seed: int, seconds: float, import_seconds: float,
        sampler: SpeedSampler) -> dict:
    """Run one ``serve-*`` workload untraced; ``run.py`` has the result
    shape."""
    with perf_env.fresh_dir(name) as tmp:
        attempted = failed = 0
        setups = []
        # Set up SETUPS times: each is a new server on a new cache dir,
        # filled cold.  All but the last are drained and discarded.
        for i in range(SETUPS - 1):
            started = perf_counter()
            with Session(name, seed, tmp / f"spare{i}") as spare:
                spare.fill()
                setups.append(sampler.calibrated(started, perf_counter()))
            attempted += spare.loop.attempted
            failed += spare.loop.failed
        started = perf_counter()
        with Session(name, seed, tmp / "cache") as session:
            session.fill()
            setups.append(sampler.calibrated(started, perf_counter()))
            started = perf_counter()
            session.warm_up()
            warmup_seconds = sampler.calibrated(started, perf_counter())
            session.request(seconds=seconds)
            timed = len(session.loop.intervals)
            typical = perf_stats.steady(session.loop.intervals,
                                        session.segment, sampler.factor)
            if not session.hit:
                session.loop.recheck(seed)
            peak = session.server.peak_rss_mb()
        return {
            "attempted": attempted + session.loop.attempted,
            "failed": failed + session.loop.failed,
            "e2e": {
                "setup_s": (import_seconds + statistics.median(setups)
                            + warmup_seconds),
                "latency_ms": typical["p50"] * 1e3,
                "ops_per_s": 1.0 / typical["mean"],
                "peak_rss_mb": peak,
            },
            "notes": [f"{timed} timed requests in "
                      f"{int(typical['segments'])} segments of "
                      f"{session.segment}; typical segment p90 "
                      f"{typical['p90'] * 1e3:.4f} ms"],
        }


# -- the traced run ---------------------------------------------------------------


def merge_spans(server_spans: list[dict], first_op: int,
                intervals: list[tuple[float, float]]) -> list[dict]:
    """Hang the server's spans under the load generator's request spans.

    Both processes read ``CLOCK_MONOTONIC``, so the timestamps compare.
    Request ``i`` of the traced region is the server's operation
    ``first_op + i``.  Per request the result holds a ``request`` root
    (layer ``harness``), the ``ServeClient.request`` call under it
    (layer ``client``: encoding, the loopback hop, decoding), and under
    that ``read_request`` — clipped to the moment the client started to
    send — and a ``handler`` span from the end of the read to the start
    of the next read, which adopts every server span of the operation
    that has no parent of its own.
    """
    reads = sorted((s for s in server_spans if s["name"] == "read_request"),
                   key=lambda s: s["start"])
    by_op: dict[int, list[dict]] = {}
    for span in server_spans:
        if span["name"] != "read_request":
            by_op.setdefault(span["op"], []).append(span)
    next_id = max((s["id"] for s in server_spans), default=0) + 1
    merged = []
    for i, (start, end) in enumerate(intervals):
        op = first_op + i
        read = reads[op - 1]
        root, call, handler = next_id, next_id + 1, next_id + 2
        next_id += 3
        common = {"op": op, "note": None}
        merged.append({**common, "id": root, "parent": None,
                       "name": "request", "layer": "harness",
                       "start": start, "end": end})
        merged.append({**common, "id": call, "parent": root,
                       "name": "ServeClient.request", "layer": "client",
                       "start": start, "end": end})
        merged.append({**read, "parent": call,
                       "start": max(read["start"], start)})
        merged.append({**common, "id": handler, "parent": call,
                       "name": "handler", "layer": "serve",
                       "start": read["end"],
                       "end": min(reads[op]["start"], end)})
        for span in by_op.get(op, ()):
            parent = span["parent"]
            merged.append({**span, "parent":
                           handler if parent is None else parent})
    return merged


def run_traced(name: str, seed: int, sampler: SpeedSampler) -> dict:
    """The reduced-length traced run and its untraced reference."""
    count = TRACED_REQUESTS[name]
    spans_path = perf_env.RESULTS / f"{name}-server-trace.json"
    with perf_env.fresh_dir(name) as tmp:
        # Untraced reference: the stock server.
        with Session(name, seed, tmp / "cache") as plain:
            plain.fill()
            plain.warm_up()
            cpu = plain.server.cpu_seconds()
            own_cpu = time.process_time()
            plain.request(count=count)
            own_cpu = time.process_time() - own_cpu
            cpu = plain.server.cpu_seconds() - cpu
        reference = plain.loop.latencies
        typical = perf_stats.steady(plain.loop.intervals, plain.segment,
                                    sampler.factor)

        # Traced: the launcher, on the filled cache (serve-hit) or a new
        # one (serve-miss, whose requests must never have been seen).
        with Session(name, seed,
                     tmp / ("cache" if plain.hit else "cache-traced"),
                     spans_out=spans_path) as traced:
            if plain.hit:
                traced.filled = plain.filled
            else:
                traced.fill()
            traced.warm_up()
            first_op = traced.server.requests_sent + 1
            traced.request(count=count)

    dump = json.loads(spans_path.read_text(encoding="utf-8"))
    spans_path.unlink()  # merged below and written out by run.py
    spans = merge_spans(dump["spans"], first_op, traced.loop.intervals)
    last_op = first_op + count - 1
    sim_rows = [row for op, row in dump["sim"] if first_op <= op <= last_op]
    computed = [payload for _, payload in traced.loop.replies
                if payload["status"] == "computed"]
    kernels = [k for payload in computed
               for k in payload["result"]["kernel_infos"]
               if k["estimates"] is not None]
    traced_typical = perf_stats.steady(traced.loop.intervals,
                                       traced.segment, sampler.factor)
    layers = {
        **dict.fromkeys(perf_layers.FIG14_ONLY, 0.0),
        **perf_layers.from_trace(
            spans, sim_rows, kernels, operations=count,
            overhead_ratio=traced_typical["p50"] / typical["p50"]),
        "serve.p50_ms": typical["p50"] * 1e3,
        "serve.p90_ms": typical["p90"] * 1e3,
        "serve.p99_ms": perf_stats.nearest_rank(sorted(reference),
                                                0.99) * 1e3,
        "serve.rps": 1.0 / typical["mean"],
        "serve.server_cpu_us_per_req": cpu / count * 1e6,
        # The load generator's own CPU time: what to subtract from a
        # latency to get the server's share.
        "serve.client_us": own_cpu / count * 1e6,
        "jobs.hits": len(traced.loop.replies) - len(computed),
        "jobs.computed": len(computed),
        "jobs.failed": traced.loop.failed,
    }
    return {
        "attempted": plain.loop.attempted + traced.loop.attempted,
        "failed": plain.loop.failed + traced.loop.failed,
        "layers": layers,
        "spans": spans,
    }
