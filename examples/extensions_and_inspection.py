#!/usr/bin/env python3
"""The §9 extensions and the machine-inspection API.

1. Plain BAT vs the two-point *calibrated* BAT on ED: the calibrated
   policy fits a sub-linear utilization model from a 4-thread probe and
   lands on the true saturation knee.
2. Plain SAT vs *two-phase* SAT on ISort: the refined policy re-measures
   the contended critical-section cost and corrects SAT's optimistic
   single-threaded estimate.
3. ``machine_report`` dumps every simulator counter as JSON-able data.

Run:  python examples/extensions_and_inspection.py
"""

import json

from repro import FdtMode, FdtPolicy, MachineConfig, run_application
from repro.analysis import machine_report, sweep_threads
from repro.fdt.extensions import CalibratedBatPolicy, TwoPhaseSatPolicy
from repro.sim.machine import Machine
from repro.workloads import get


def main() -> None:
    config = MachineConfig.asplos08_baseline()

    # --- calibrated BAT on ED ------------------------------------------
    sweep = sweep_threads(lambda: get("ED").build(0.2),
                          (1, 4, 7, 8, 9, 10, 12), config)
    plain = run_application(get("ED").build(0.2),
                            FdtPolicy(FdtMode.BAT), config)
    calibrated = run_application(get("ED").build(0.2),
                                 CalibratedBatPolicy(), config)
    print("ED (bandwidth-limited):")
    print(f"  linear BAT (Eq. 5):    {plain.kernel_infos[0].threads} threads "
          f"-> {plain.cycles / sweep.min_cycles:.3f}x the sweep minimum")
    print(f"  calibrated BAT (§9):   "
          f"{calibrated.kernel_infos[0].threads} threads "
          f"-> {calibrated.cycles / sweep.min_cycles:.3f}x the sweep minimum")

    # --- two-phase SAT on ISort -------------------------------------------
    sweep = sweep_threads(lambda: get("ISort").build(0.5),
                          (1, 3, 4, 5, 6, 7, 8), config)
    plain = run_application(get("ISort").build(0.5),
                            FdtPolicy(FdtMode.SAT), config)
    refined = run_application(get("ISort").build(0.5),
                              TwoPhaseSatPolicy(), config)
    print("\nISort (synchronization-limited):")
    print(f"  plain SAT:             {plain.kernel_infos[0].threads} threads "
          f"-> {plain.cycles / sweep.min_cycles:.3f}x the sweep minimum")
    print(f"  two-phase SAT (§9):    {refined.kernel_infos[0].threads} threads "
          f"-> {refined.cycles / sweep.min_cycles:.3f}x the sweep minimum")

    # --- machine inspection ---------------------------------------------------
    machine = Machine(config)
    run_application(get("PageMine").build(0.2), FdtPolicy(), machine=machine)
    report = machine_report(machine)
    summary = {
        "cycles": report["cycles"],
        "l3_miss_rate": report["l3"]["miss_rate"],
        "bus_utilization": report["bus"]["utilization"],
        "dram_row_hit_rate": report["dram"]["row_hit_rate"],
        "lock_mean_hold": report["locks"]["mean_hold"],
        "coherence_cache_to_cache": report["coherence"]["cache_to_cache"],
    }
    print("\nPageMine machine report (excerpt):")
    print(json.dumps(summary, indent=2))


if __name__ == "__main__":
    main()
