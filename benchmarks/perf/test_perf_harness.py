"""Checks of the benchmark harness itself.

Run as ``python -m pytest benchmarks/perf -q`` (outside tier-1's
``testpaths``; the two end-to-end cases start real servers and take
about half a minute together).
"""

from __future__ import annotations

import itertools
import json
import re
import subprocess
import sys

import pytest

import perf_calib
import perf_env
import perf_fig14
import perf_serve
import perf_stats
from perf_trace import Recorder

from repro.analysis.inspection import machine_report
from repro.fdt.policies import FdtPolicy
from repro.fdt.runner import run_application
from repro.jobs import WorkloadRef
from repro.serve.schema import parse_run_request
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine

SPEC = json.loads((perf_env.ROOT / "BENCHMARK.json").read_text("utf-8"))
RUN = str(perf_env.HERE / "run.py")


# -- arithmetic -----------------------------------------------------------------


def test_nearest_rank_percentiles():
    sample = list(range(1, 101))
    assert perf_stats.nearest_rank(sample, 0.50) == 50
    assert perf_stats.nearest_rank(sample, 0.90) == 90
    assert perf_stats.nearest_rank(sample, 0.99) == 99
    assert perf_stats.nearest_rank([7.0], 0.90) == 7.0


def _intervals(latencies, start=0.0):
    out = []
    for latency in latencies:
        out.append((start, start + latency))
        start += latency
    return out


def test_steady_takes_the_median_segment_of_each_statistic():
    quiet = [1.0] * 9 + [5.0]           # p50 1, p90 1, mean 1.4
    noisy = [2.0] * 10                  # p50 2, p90 2, mean 2.0
    spiky = [1.5] * 8 + [1.6, 1.7]      # p50 1.5, p90 1.6, mean 1.53
    intervals = _intervals(noisy + quiet + spiky + [9.0] * 4)
    stats = perf_stats.steady(intervals, 10, lambda start, end: 1.0)
    assert stats["segments"] == 3       # the partial fourth is dropped
    assert stats["p50"] == pytest.approx(1.5)
    assert stats["p90"] == pytest.approx(1.6)
    assert stats["mean"] == pytest.approx(1.53)
    with pytest.raises(ValueError):
        perf_stats.steady(intervals[:9], 10, lambda start, end: 1.0)


def test_steady_scales_each_segment_by_the_speed_of_its_own_interval():
    # The second segment ran on a host twice as slow; its factor undoes it.
    intervals = _intervals([1.0] * 10 + [2.0] * 10 + [1.0] * 10)
    slow_from, slow_to = intervals[10][0], intervals[19][1]

    def factor(start, end):
        return 0.5 if (start, end) == (slow_from, slow_to) else 1.0

    stats = perf_stats.steady(intervals, 10, factor)
    assert (stats["p50"], stats["p90"], stats["mean"]) \
        == pytest.approx((1.0, 1.0, 1.0))


def test_sampler_factor_is_reference_over_measured_probe_time():
    sampler = perf_calib.SpeedSampler()
    sampler._times = [1.0, 2.0, 3.0, 4.0]
    sampler._seconds = [perf_calib.REFERENCE_SECONDS * k
                        for k in (1.0, 2.0, 2.0, 4.0)]
    assert sampler.factor(1.5, 3.5) == pytest.approx(0.5)
    assert sampler.factor(0.5, 4.5) == pytest.approx((1 + .5 + .5 + .25) / 4)
    assert sampler.calibrated(1.5, 3.5) == pytest.approx(1.0)
    assert sampler.factor(5.0, 6.0) == 1.0      # no probe inside: raw


def _span(sid, parent, layer, start, end, op=1, name="x"):
    return {"id": sid, "parent": parent, "op": op, "name": name,
            "layer": layer, "start": start, "end": end, "note": None}


def test_self_time_subtracts_the_union_of_clipped_children():
    spans = [
        _span(1, None, "harness", 0.0, 10.0),
        _span(2, 1, "jobs", 1.0, 3.0),
        _span(3, 1, "sim", 2.0, 5.0),      # overlaps span 2: union is 1-5
        _span(4, 1, "sim", 9.0, 12.0),     # clipped to the parent's end
        _span(5, 3, "obs", 2.5, 3.0),
    ]
    own = perf_stats.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[3] == pytest.approx(3.0 - 0.5)
    layers = perf_stats.layer_self_times(spans)
    assert layers["sim"] == pytest.approx(2.5 + 3.0)
    assert layers["obs"] == pytest.approx(0.5)
    # Properly nested spans: the self times add up to the root.
    nested = [s for s in spans if s["id"] != 4 and s["id"] != 2]
    assert sum(perf_stats.self_times(nested).values()) == pytest.approx(10.0)


def test_merge_spans_hangs_server_spans_under_client_requests():
    server = [
        _span(1, None, "serve", 0.0, 1.1, op=1, name="read_request"),
        _span(2, None, "serve", 1.2, 1.8, op=1, name="RequestPipeline.resolve"),
        _span(3, 2, "jobs", 1.3, 1.5, op=1, name="JobRunner.resolve"),
        _span(4, None, "serve", 1.9, 3.0, op=1, name="read_request"),
    ]
    merged = perf_serve.merge_spans(server, first_op=1,
                                    intervals=[(1.0, 2.0)])
    by_name = {s["name"]: s for s in merged}
    assert by_name["request"]["layer"] == "harness"
    read = by_name["read_request"]
    assert (read["start"], read["end"]) == (1.0, 1.1)   # idle wait clipped
    handler = by_name["handler"]
    assert (handler["start"], handler["end"]) == (1.1, 1.9)
    assert by_name["RequestPipeline.resolve"]["parent"] == handler["id"]
    assert by_name["JobRunner.resolve"]["parent"] == 2
    layers = perf_stats.layer_self_times(merged)
    assert sum(layers.values()) == pytest.approx(1.0)
    assert layers["harness"] == pytest.approx(0.0)


# -- inputs -----------------------------------------------------------------------


def test_same_seed_same_bodies_and_another_seed_other_bodies():
    assert perf_serve.hit_bodies(7) == perf_serve.hit_bodies(7)
    assert perf_serve.hit_bodies(7) != perf_serve.hit_bodies(8)
    first = list(itertools.islice(perf_serve.miss_bodies(7), 64))
    assert first == list(itertools.islice(perf_serve.miss_bodies(7), 64))
    assert first != list(itertools.islice(perf_serve.miss_bodies(8), 64))


def test_hit_bodies_are_64_distinct_specs_with_all_of_table_2():
    bodies = perf_serve.hit_bodies(3)
    keys = {parse_run_request(body).key() for body in bodies}
    assert len(bodies) == len(keys) == perf_serve.HIT_SPECS
    assert {b["workload"] for b in bodies if "workload" in b} \
        == set(perf_serve.TABLE2)


def test_miss_cycles_hold_the_same_mix_and_never_repeat_a_spec():
    bodies = list(itertools.islice(perf_serve.miss_bodies(5),
                                   4 * perf_serve.MISS_CYCLE))
    keys = {parse_run_request(body).key() for body in bodies}
    assert len(keys) == len(bodies)
    mixes = []
    for start in range(0, len(bodies), perf_serve.MISS_CYCLE):
        cycle = bodies[start:start + perf_serve.MISS_CYCLE]
        mixes.append(sorted((b["synthetic"]["bus_lines"],
                             round(b["synthetic"]["cs_fraction"], 1))
                            for b in cycle))
    assert all(mix == mixes[0] for mix in mixes)
    assert len(set(mixes[0])) == perf_serve.MISS_CYCLE


# -- correctness pins -------------------------------------------------------------


def test_a_corrupted_golden_value_fails_its_job(tmp_path, monkeypatch):
    tiny = perf_fig14.Fig14Class(("EP",), {"EP": 0.05})
    monkeypatch.setitem(perf_fig14.CLASSES, "tiny", tiny)
    monkeypatch.setattr(perf_fig14, "GOLDEN_PATH", tmp_path / "golden.json")
    recorded = perf_fig14.run_pass(tiny, tiny.scales)
    golden = {"jobs": {"tiny": recorded.pins},
              "norm": {"tiny": {"time": recorded.norm_time,
                                "power": recorded.norm_power}}}
    perf_fig14.GOLDEN_PATH.write_text(json.dumps(golden))

    sampler = perf_calib.SpeedSampler()   # never started: raw seconds
    clean = perf_fig14._CheckedPasses("tiny", sampler)
    clean.run()
    assert (clean.attempted, clean.failed) == (2, 0)

    golden["jobs"]["tiny"]["EP@0.05 under fdt"]["cycles"] += 1
    perf_fig14.GOLDEN_PATH.write_text(json.dumps(golden))
    corrupted = perf_fig14._CheckedPasses("tiny", sampler)
    corrupted.run()
    assert corrupted.failed == 1
    assert corrupted.failed / corrupted.attempted > 0


def test_committed_golden_pins_every_job_of_every_class():
    golden = perf_fig14.load_golden()
    for name, cls in perf_fig14.CLASSES.items():
        labels = {spec.label for app in cls.apps
                  for spec in perf_fig14.job_specs(app, cls.scales[app])}
        assert set(golden["jobs"][name]) == labels
        for pins in golden["jobs"][name].values():
            assert set(pins) == {"cycles", "retired_instructions",
                                 "busy_core_cycles", "bus_busy_cycles",
                                 "lock_acquisitions", "threads_used"}


def test_traced_counters_equal_machine_report():
    machine = Machine(MachineConfig.asplos08_baseline())
    run_application(WorkloadRef(name="PageMine", scale=0.05).build(),
                    FdtPolicy(), machine=machine)
    recorder = Recorder()
    recorder._machines.append(machine)
    recorder._fold_machines()
    report = machine_report(machine)
    (_, row), = recorder.sim_rows
    assert row["l1.hits"] == report["l1"]["total_hits"]
    assert row["l2.misses"] == report["l2"]["total_misses"]
    assert row["l3.misses"] == report["l3"]["misses"]
    assert row["coherence.c2c"] == report["coherence"]["cache_to_cache"]
    assert row["ring.messages"] == report["ring"]["messages"]
    assert row["bus.busy_cycles"] == report["bus"]["busy_cycles"]
    assert row["dram.row_hits"] == report["dram"]["row_hits"]
    assert row["lock.contended"] == report["locks"]["contended"]
    assert row["barrier.episodes"] == report["barriers"]["episodes"]
    assert row["cycles"] == report["cycles"]


# -- the command --------------------------------------------------------------------


def _names(section):
    return [m["name"] for m in SPEC[section]]


def test_benchmark_json_names_are_well_formed_and_unique():
    names = ([w["name"] for w in SPEC["workloads"]]
             + _names("end_to_end") + _names("per_layer"))
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert {"setup_s"} <= set(_names("end_to_end"))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert set(perf_fig14.CLASSES) | {"serve-hit", "serve-miss"} \
        == {w["name"] for w in SPEC["workloads"]}


def _run(*args):
    done = subprocess.run([sys.executable, RUN, *args],
                          stdout=subprocess.PIPE, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-2000:]
    return done.stdout, json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])


def test_untraced_command_prints_every_end_to_end_metric():
    text, line = _run("--workload", "serve-miss", "--seed", "11",
                      "--seconds", "1", "--trace", "0")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == _names("end_to_end")
    for name in _names("end_to_end"):
        assert re.search(rf"^\s+{re.escape(name)}\s", text, re.M), name
        assert line["metrics"][name]["value"] > 0


def test_traced_command_prints_every_per_layer_metric():
    text, line = _run("--workload", "serve-miss", "--seed", "11",
                      "--seconds", "1", "--trace", "1")
    assert line["correct"]
    assert list(line["metrics"]) == _names("per_layer")
    for name in _names("per_layer"):
        assert re.search(rf"^\s+{re.escape(name)}\s", text, re.M), name
    values = {k: v["value"] for k, v in line["metrics"].items()}
    assert values["unattributed_share"] <= 0.1
    assert values["serve.batch_size_mean"] == 1.0
    assert values["jobs.computed"] == perf_serve.TRACED_REQUESTS["serve-miss"]
    assert (perf_env.RESULTS / "serve-miss-spans.json").is_file()


def test_slow_paths_are_refused(monkeypatch):
    monkeypatch.setenv("REPRO_SLOW_PATHS", "1")
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "serve-miss", "--seconds", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
    assert done.returncode != 0
    assert "REPRO_SLOW_PATHS" in done.stderr
    assert done.stdout.strip() == ""
