"""The repository benchmark: one command, five workloads.

    python benchmarks/perf/run.py --workload serve-hit --seed 3 \\
        --seconds 10 --trace 0        # one workload, as the driver runs it
    python benchmarks/perf/run.py [--trace 1] [--repeat K]
                                      # every workload, each in a child

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  Names, units, directions and bounds are read from
``BENCHMARK.json``; a metric the run did not produce, or one it
produced that the file does not list, is an error.

See README.md in this directory for what each workload and metric is.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from time import perf_counter

_STARTED = perf_counter()

import perf_env  # noqa: E402  (src/ must be importable before the rest)
from perf_calib import SpeedSampler  # noqa: E402

SPEC = json.loads((perf_env.ROOT / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload in this process and return its result dict.

    ``{"attempted", "failed", "e2e" | "layers": {metric: value}, ...}``
    """
    perf_env.scrub_environment()
    perf_env.pin_to_one_cpu()
    # Started before the heavy imports, so that they are calibrated too.
    sampler = SpeedSampler()
    sampler.start()
    import perf_fig14
    import perf_serve

    import_seconds = sampler.calibrated(_STARTED, perf_counter())
    if name in perf_fig14.CLASSES:
        result = (perf_fig14.run_traced(name, sampler) if traced else
                  perf_fig14.run(name, seconds, import_seconds, sampler))
    else:
        result = (perf_serve.run_traced(name, seed, sampler) if traced else
                  perf_serve.run(name, seed, seconds, import_seconds,
                                 sampler))
    sampler.stop()
    if traced:
        import perf_probes

        result["layers"].update(perf_probes.run_all())
        perf_env.RESULTS.mkdir(exist_ok=True)
        (perf_env.RESULTS / f"{name}-spans.json").write_text(
            json.dumps(result.pop("spans")), encoding="utf-8")
    return result


def report(name: str, result: dict, traced: bool) -> dict:
    """Print every metric by name and return the driver's JSON object."""
    declared = SPEC["per_layer" if traced else "end_to_end"]
    values = result["layers" if traced else "e2e"]
    missing = {m["name"] for m in declared} ^ set(values)
    if missing:
        raise SystemExit(f"{name}: metrics out of step with BENCHMARK.json: "
                         f"{sorted(missing)}")
    print(f"== {name} ({'traced' if traced else 'untraced'}) ==")
    for note in result.get("notes", ()):
        print(f"   {note}")
    for metric in declared:
        bound = (f", may worsen {metric['bound']:.0%}"
                 if "bound" in metric else "")
        print(f"   {metric['name']:<34} {values[metric['name']]:>16.6g} "
              f"{metric['unit']:<8} ({metric['better']} is better{bound})")
    if traced:
        explained = 1.0 - values["unattributed_share"]
        ok = explained >= 0.9
        print(f"   decomposition: layer self times explain {explained:.1%} "
              f"of the traced time ({'ok' if ok else 'BELOW 90 %'}); "
              f"traced/untraced {values['trace_overhead_ratio']:.3f}")
    print(f"   operations: {result['attempted']} attempted, "
          f"{result['failed']} failed "
          f"(failed_ratio {result['failed'] / result['attempted']:.6f})")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }


def run_child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload in a fresh child process; returns its JSON object."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if done.returncode != 0:
        raise SystemExit(f"{name}: exit {done.returncode}\n{lines[-1]}")
    return json.loads(lines[-1])


def repeatability(sets: list[dict[str, dict]]) -> bool:
    """Print min / median / max per workload and end-to-end metric."""
    print(f"== repeatability over {len(sets)} sets ==")
    all_inside = True
    for name in WORKLOADS:
        if not all(s[name]["correct"] for s in sets):
            print(f"   {name}: a run was incorrect")
            all_inside = False
        for metric in SPEC["end_to_end"]:
            values = [s[name]["metrics"][metric["name"]]["value"]
                      for s in sets]
            median = statistics.median(values)
            width = (max(values) - min(values)) / median
            inside = width <= metric["bound"]
            all_inside &= inside
            print(f"   {name:<15} {metric['name']:<12} "
                  f"min {min(values):>12.6g} median {median:>12.6g} "
                  f"max {max(values):>12.6g} {metric['unit']:<4} "
                  f"spread {width:6.1%} of bound {metric['bound']:.0%} "
                  f"{'inside' if inside else 'OUTSIDE'}")
    return all_inside


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="run K full sets and print the spread of "
                             "every end-to-end metric")
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json from this tree")
    args = parser.parse_args()

    if args.record_golden:
        perf_env.scrub_environment()
        import perf_fig14

        perf_fig14.record_golden()
        return 0

    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
        line = report(args.workload, result, bool(args.trace))
        print(json.dumps(line))
        return 0

    sets = []
    for k in range(args.repeat):
        sets.append({name: run_child(name, args.seed + k, args.seconds, 0)
                     for name in WORKLOADS})
    if args.trace:
        for name in WORKLOADS:
            run_child(name, args.seed, args.seconds, 1)
    import perf_fig14

    print(perf_fig14.accuracy_line())
    if args.repeat > 1 and not repeatability(sets):
        return 1
    return 0 if all(r["correct"] for s in sets for r in s.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
