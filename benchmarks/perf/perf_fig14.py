"""The three ``fig14-*`` workloads: Fig. 14 one limiter class at a time.

Inputs are fixed by Table 2, so ``--seed`` changes nothing here; the
simulator is deterministic and every job is checked against
``golden.json``.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
from dataclasses import dataclass
from time import perf_counter

import perf_env
import perf_layers
from perf_calib import SpeedSampler
from perf_trace import Recorder

import repro.experiments.fig14_combined as fig14
from repro.fdt.runner import AppRunResult
from repro.jobs import (
    JobRunner,
    JobSpec,
    PolicySpec,
    ResultCache,
    WorkloadRef,
    app_result_to_dict,
)
from repro.sim.config import MachineConfig

GOLDEN_PATH = perf_env.HERE / "golden.json"

#: Scale of the untimed warm-up pass that is the workloads' set-up.
WARMUP_SCALE = 0.05
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Fewest timed passes, so that one miscalibrated pass cannot decide alone.
MIN_PASSES = 2


@dataclass(frozen=True, slots=True)
class Fig14Class:
    apps: tuple[str, ...]
    scales: dict[str, float]


CLASSES = {
    "fig14-cs": Fig14Class(
        ("PageMine", "ISort", "GSearch", "EP"),
        {"PageMine": 1.0, "ISort": 1.0, "GSearch": 1.0, "EP": 1.0}),
    # Scales below 1.0 keep a pass near 8 s; FDT still picks 7 / 17 / 8 /
    # (32, 12) threads and the normalized time and power match scale 1.0
    # to two digits.
    "fig14-bw": Fig14Class(
        ("ED", "convert", "Transpose", "MTwister"),
        {"ED": 0.5, "convert": 1.0, "Transpose": 0.5, "MTwister": 0.25}),
    "fig14-scalable": Fig14Class(
        ("BT", "MG", "BScholes", "SConv"),
        {"BT": 1.0, "MG": 1.0, "BScholes": 1.0, "SConv": 1.0}),
}


def job_specs(app: str, scale: float) -> list[JobSpec]:
    """The two jobs ``run_fig14`` submits for one application."""
    ref = WorkloadRef(name=app, scale=scale)
    config = MachineConfig.asplos08_baseline()
    return [JobSpec(workload=ref, policy=PolicySpec.static(), config=config),
            JobSpec(workload=ref, policy=PolicySpec.fdt(), config=config)]


def pins(result: AppRunResult) -> dict:
    """The values ``golden.json`` pins for one job."""
    total = result.result
    return {
        "cycles": result.cycles,
        "retired_instructions": total.retired_instructions,
        "busy_core_cycles": total.busy_core_cycles,
        "bus_busy_cycles": total.bus_busy_cycles,
        "lock_acquisitions": total.lock_acquisitions,
        "threads_used": list(result.threads_used),
    }


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def mismatched(measured: dict[str, dict], golden: dict[str, dict]) -> list[str]:
    """Labels of jobs whose pins differ from (or are missing in) golden."""
    return [label for label, values in measured.items()
            if golden.get(label) != values]


@dataclass(slots=True)
class PassOutcome:
    #: ``perf_counter`` readings around the ``run_fig14`` call.
    started: float
    ended: float
    norm_time: float
    norm_power: float
    pins: dict[str, dict]
    results: dict[str, AppRunResult]
    counts: dict


def run_pass(cls: Fig14Class, scales: dict[str, float]) -> PassOutcome:
    """One pass: ``run_fig14`` over the class on a fresh cold cache."""
    with perf_env.fresh_dir("fig14") as cache_dir:
        runner = JobRunner(cache=ResultCache(cache_dir), jobs=1)
        started = perf_counter()
        combined = fig14.run_fig14(workloads=cls.apps, scales=scales,
                                   runner=runner)
        ended = perf_counter()
        counts = dict(runner.manifest.counts)
        # Untimed: read the per-job results back (memo hits) to check.
        results = {}
        for app in cls.apps:
            for spec in job_specs(app, scales[app]):
                results[spec.label] = runner.run_one(spec)
    return PassOutcome(started=started, ended=ended,
                       norm_time=combined.gmean_time,
                       norm_power=combined.gmean_power,
                       pins={k: pins(v) for k, v in results.items()},
                       results=results, counts=counts)


def record_golden() -> None:
    """Rewrite the ``jobs`` and ``norm`` sections of ``golden.json``."""
    golden = load_golden()
    for name, cls in CLASSES.items():
        outcome = run_pass(cls, cls.scales)
        golden["jobs"][name] = outcome.pins
        golden["norm"][name] = {"time": outcome.norm_time,
                                "power": outcome.norm_power}
        print(f"{name}: {len(outcome.pins)} jobs pinned")
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                           + "\n", encoding="utf-8")


def _setup(cls: Fig14Class, sampler: SpeedSampler) -> float:
    """Median seconds of the warm-up pass, run ``SETUPS`` times."""
    warm = {app: WARMUP_SCALE for app in cls.apps}
    seconds = []
    for _ in range(SETUPS):
        started = perf_counter()
        run_pass(cls, warm)
        seconds.append(sampler.calibrated(started, perf_counter()))
    return statistics.median(seconds)


class _CheckedPasses:
    """Full-scale passes of one class, each checked against the pins."""

    def __init__(self, name: str, sampler: SpeedSampler) -> None:
        self.cls = CLASSES[name]
        self.sampler = sampler
        golden = load_golden()
        self._jobs = golden["jobs"][name]
        self._norm = (golden["norm"][name]["time"],
                      golden["norm"][name]["power"])
        self.jobs_per_pass = 2 * len(self.cls.apps)
        self.passes: list[PassOutcome] = []
        #: Calibrated host seconds of each pass.
        self.seconds: list[float] = []
        self.failed = 0

    def run(self) -> PassOutcome:
        outcome = run_pass(self.cls, self.cls.scales)
        self.seconds.append(
            self.sampler.calibrated(outcome.started, outcome.ended))
        bad = mismatched(outcome.pins, self._jobs)
        if (outcome.norm_time, outcome.norm_power) != self._norm:
            # The class's headline ratios moved: no job can be trusted.
            bad = list(outcome.pins)
        for label in bad:
            print(f"golden mismatch: {label}: {outcome.pins[label]}")
        self.failed += max(len(bad), outcome.counts["failed"]
                           + outcome.counts["timeouts"])
        self.passes.append(outcome)
        return outcome

    @property
    def attempted(self) -> int:
        return self.jobs_per_pass * len(self.passes)


def run(name: str, seconds: float, import_seconds: float,
        sampler: SpeedSampler) -> dict:
    """Run one ``fig14-*`` workload untraced; ``run.py`` has the result
    shape."""
    checked = _CheckedPasses(name, sampler)
    setup_s = import_seconds + _setup(checked.cls, sampler)
    started = perf_counter()
    while (len(checked.passes) < MIN_PASSES
           or perf_counter() - started < seconds):
        checked.run()
    # Calibrated times are averaged, not minimised (see perf_calib).
    pass_seconds = statistics.mean(checked.seconds)
    first = checked.passes[0]
    return {
        "attempted": checked.attempted,
        "failed": checked.failed,
        "e2e": {
            "setup_s": setup_s,
            "latency_ms": pass_seconds * 1e3,
            "ops_per_s": checked.jobs_per_pass / pass_seconds,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "notes": [f"{len(checked.passes)} timed passes of "
                  f"{checked.jobs_per_pass} jobs; fdt_norm_time "
                  f"{first.norm_time:.6f} fdt_norm_power "
                  f"{first.norm_power:.6f} (both pinned)"],
    }


def run_traced(name: str, sampler: SpeedSampler) -> dict:
    """One untraced reference pass, then one pass with the wrappers on."""
    checked = _CheckedPasses(name, sampler)
    run_pass(checked.cls, {app: WARMUP_SCALE for app in checked.cls.apps})
    checked.run()  # the untraced reference
    recorder = Recorder()
    recorder.install_batch_path()
    try:
        opened = recorder.begin()
        outcome = checked.run()
        recorder.end(opened, "pass", "harness")
    finally:
        recorder.uninstall()
    spans = recorder.spans()
    kernels = [k for label, result in outcome.results.items()
               if label.endswith("under fdt")
               for k in app_result_to_dict(result)["kernel_infos"]]
    layers = {
        **dict.fromkeys(perf_layers.SERVE_ONLY, 0.0),
        **perf_layers.from_trace(
            spans, [row for _, row in recorder.sim_rows], kernels,
            operations=1,
            overhead_ratio=checked.seconds[1] / checked.seconds[0]),
        "fdt.norm_time": outcome.norm_time,
        "fdt.norm_power": outcome.norm_power,
        "jobs.hits": outcome.counts["hits"],
        "jobs.computed": outcome.counts["computed"],
        "jobs.failed": outcome.counts["failed"] + outcome.counts["timeouts"],
    }
    return {"attempted": checked.attempted, "failed": checked.failed,
            "layers": layers, "spans": spans}


def accuracy_line() -> str:
    """Twelve-application gmean against the paper's 0.83 / 0.41.

    Read from the pinned class values: they are exact, and every
    ``fig14-*`` run fails unless it reproduces its own.
    """
    golden = load_golden()
    paper, norms = golden["paper"], golden["norm"].values()
    time = math.prod(n["time"] ** 4 for n in norms) ** (1 / 12)
    power = math.prod(n["power"] ** 4 for n in norms) ** (1 / 12)
    return (f"accuracy (not gated): 12-app gmean fdt_norm_time {time:.3f} "
            f"vs paper {paper['fdt_norm_time']}, fdt_norm_power {power:.3f} "
            f"vs paper {paper['fdt_norm_power']}")
